"""``repro.obs`` — virtual-time tracing and metrics for the data plane.

The paper's time-series claims (renegotiation latency masked by
buffered writes, RAF recovering via repartitioning, WAF staying 1x)
are about *when* things happen inside the pipeline, not just epoch
totals.  This package is the measurement substrate: a
:class:`MetricsRegistry` of counters/gauges/bounded histograms, a
:class:`ChromeTracer` emitting Perfetto-loadable span timelines, and a
:class:`~repro.obs.clock.Clock` protocol that keeps every timestamp in
*virtual* time so the deterministic core never reads the host clock
(enforced statically by carp-lint's D1xx and O5xx families).

Instrumented subsystems receive one :class:`Obs` object; they never
construct clocks, tracers, or registries themselves (rule O502) — the
caller (``carp trace``, a benchmark, a test) decides whether to record:

    obs = Obs.recording()
    with CarpRun(16, out, opts, obs=obs) as run:
        run.ingest_epoch(0, streams)
    obs.tracer.write(out / "trace.json")
    obs.metrics.write_json(out / "metrics.json")

``Obs.null()`` (the default everywhere) is a shared do-nothing stack:
its clock is frozen, its registry hands out no-op instruments and its
spans are one shared no-op object, so instrumented code calls it
unconditionally.  ``obs.enabled`` is checked only where something
needs protecting: assigning ``request_id`` (never on the shared null
stack) and computing arguments for a telemetry sample.
"""

from __future__ import annotations

from types import TracebackType

from repro.obs.buffer import BufferingTracer
from repro.obs.clock import Clock, NullClock, VirtualClock
from repro.obs.context import RequestContext, RequestIdAllocator
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.telemetry import NULL_TELEMETRY, TelemetryStream
from repro.obs.tracer import (
    ChromeTracer,
    NullTracer,
    SpanRecord,
    Tracer,
    Track,
    validate_trace_events,
)

__all__ = [
    "Clock",
    "NullClock",
    "VirtualClock",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "BufferingTracer",
    "ChromeTracer",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "Track",
    "validate_trace_events",
    "RequestContext",
    "RequestIdAllocator",
    "TelemetryStream",
    "NULL_TELEMETRY",
    "Obs",
    "Span",
    "NULL_OBS",
    "RECORD_TICK",
    "MESSAGE_TICK",
    "ROUND_TICK",
]

#: Virtual ticks of pipeline work per record routed/flushed (1 tick
#: ~ 1000 records), per control-plane message, and per ingestion round.
RECORD_TICK = 1e-3
MESSAGE_TICK = 1e-3
ROUND_TICK = 1.0


class Span:
    """Context manager pairing a ``B``/``E`` event with a clock advance.

    On exit the clock moves forward by ``dur`` ticks *plus* whatever
    nested spans advanced it, so outer spans always contain inner ones
    on the timeline.
    """

    __slots__ = ("_obs", "_track", "_name", "_dur", "_args", "_exit_args")

    def __init__(self, obs: "Obs", track: Track, name: str, dur: float,
                 args: dict[str, object] | None) -> None:
        self._obs = obs
        self._track = track
        self._name = name
        self._dur = dur
        self._args = args
        self._exit_args: dict[str, object] | None = None

    def annotate(self, args: dict[str, object]) -> None:
        """Attach exact measured facts to the span's ``E`` event.

        For values only known once the work ran (bytes actually
        written, SSTs actually produced): the ``E`` event carries them,
        and ``carp profile`` joins them against the metrics counters
        incremented at the same code sites.
        """
        if self._exit_args is None:
            self._exit_args = dict(args)
        else:
            self._exit_args.update(args)

    def __enter__(self) -> "Span":
        self._obs.tracer.begin(self._track, self._name,
                               self._obs.clock.now(), self._args)
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        if self._dur:
            self._obs.clock.advance(self._dur)
        self._obs.tracer.end(self._track, self._obs.clock.now(),
                             self._exit_args)


class _NullSpan:
    """Shared no-op span for disabled observability."""

    __slots__ = ()

    def annotate(self, args: dict[str, object]) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Obs:
    """One observability stack: clock + metrics + tracer.

    The single object instrumented subsystems accept: the ``obs=``
    keyword of ``CarpRun``, ``KoiDB`` and ``simulate_ingestion``, and
    of each ``PartitionedStore.query``/``explain`` call — a store is a
    read view shared by its callers, so the caller says where a query
    records.
    """

    __slots__ = ("clock", "metrics", "tracer", "enabled", "request_id",
                 "telemetry")

    def __init__(self, clock: Clock, metrics: MetricsRegistry,
                 tracer: Tracer, enabled: bool = True,
                 telemetry: TelemetryStream | None = None) -> None:
        self.clock = clock
        self.metrics = metrics
        self.tracer = tracer
        self.enabled = enabled
        #: the in-flight request id (see :class:`RequestContext`);
        #: spans opened while set carry a ``request`` arg.  Set/reset
        #: by the driver around each request, and set on each rank's
        #: stack through ``KoiDB.set_request``.
        self.request_id: str | None = None
        #: the attached telemetry stream; :data:`NULL_TELEMETRY` when
        #: no stream is wired, so hot-path hooks stay branch-free.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    @classmethod
    def recording(cls) -> "Obs":
        """A fresh recording stack (virtual clock, live registry/tracer)."""
        return cls(VirtualClock(), MetricsRegistry(), ChromeTracer())

    @classmethod
    def null(cls) -> "Obs":
        """The shared zero-overhead stack (see :data:`NULL_OBS`)."""
        return NULL_OBS

    @classmethod
    def deltas(cls) -> "Obs":
        """A worker-local stack: private metrics, fresh clock, buffering tracer.

        The serve plane gives each worker thread one, so threads never
        share a registry; ``QueryService`` folds their counters and
        spans into its own stack in request order at close.
        """
        return cls(VirtualClock(), MetricsRegistry(), BufferingTracer())

    def for_rank(self) -> "Obs":
        """A receiver rank's stack: this registry, its own clock and tracer.

        ``CarpRun`` derives one per rank's KoiDB (lint rule O502 bans
        building a recording stack in the data plane).  Metrics go
        straight into this stack's registry: counters are exact ints
        and every rank gauge or histogram has a per-rank name, so the
        order ranks record in does not show in ``metrics.json``.  Spans
        land in a :class:`~repro.obs.buffer.BufferingTracer` on a
        *rank-local* virtual timeline starting at zero, which the
        driver merges in rank order at epoch end and close, so
        trace.json depends only on each rank's own call sequence.
        A disabled stack hands out :data:`NULL_OBS`.
        """
        if not self.enabled:
            return NULL_OBS
        return Obs(VirtualClock(), self.metrics, BufferingTracer())

    def track(self, process: str, thread: str = "main") -> Track:
        """Shorthand for ``obs.tracer.track(...)``."""
        return self.tracer.track(process, thread)

    def span(self, track: Track, name: str, dur: float = 0.0,
             args: dict[str, object] | None = None) -> Span | _NullSpan:
        """Open a span that advances the clock by ``dur`` on exit.

        While a request id is set on this stack (driver-side around
        each ingest/query, rank-side via ``KoiDB.set_request``), the
        span's args gain a ``request`` entry so ``carp profile record
        DIR --request <id>`` can pull one request's tree out of the
        merged timeline.
        """
        if not self.enabled:
            return _NULL_SPAN
        if self.request_id is not None:
            args = {**(args or {}), "request": self.request_id}
        return Span(self, track, name, dur, args)


#: The do-nothing stack every instrumented subsystem defaults to.
NULL_OBS = Obs(NullClock(), NullMetricsRegistry(), NullTracer(),
               enabled=False, telemetry=NULL_TELEMETRY)
