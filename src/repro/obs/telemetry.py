"""Streaming metrics export: the live telemetry plane.

A :class:`TelemetryStream` turns the end-of-run
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` into a *time
series*: samples are appended to an injected sink as JSON lines
(``telemetry.jsonl``) while the run is still in flight, on two
cadences —

* **virtual-time ticks** (:meth:`TelemetryStream.tick`), emitted from
  the ``CarpRun`` round loop whenever the driver clock crosses the
  sampling interval.  Tick samples are restricted to *driver-owned*
  metric prefixes (:data:`DRIVER_SCOPE_PREFIXES`): the storage and
  fault counters each rank's KoiDB records are left to the full
  samples, so a tick shows the driver's view of the round loop only.
* **full samples** (:meth:`TelemetryStream.sample`), emitted at epoch
  end, after each query, and at session close — the points where
  every rank's epoch work is done and the whole registry is
  deterministic.  Full samples carry cumulative counters, gauges,
  histogram state including bucket ``bounds``/``counts`` and the
  p50/p95/p99 bucket-upper-bound quantiles, and derived SLO gauges
  (read amplification, fault totals), tagged with the request they
  close when there is one.

Everything is injected — the metrics registry, the clock, and the
output sink — never acquired here (no ``open()`` or wall clock at
module or constructor scope; carp-lint rule O504 enforces this), so
the stream is as deterministic and testable as the rest of the stack.
:data:`NULL_TELEMETRY` is the shared zero-overhead null path: hot-path
hooks are no-ops and nothing is ever written.
"""

from __future__ import annotations

import json
from typing import Mapping, Protocol

from repro.obs.clock import Clock, NullClock
from repro.obs.metrics import MetricsRegistry, NullMetricsRegistry

#: Counter/gauge name prefixes owned by the driver: updated
#: synchronously by driver code, hence safe to sample mid-epoch.
#: Rank-owned prefixes (``koidb.``, ``faults.`` storage sites) merge
#: only at epoch end and close, and appear in full samples.
DRIVER_SCOPE_PREFIXES = ("carp.", "reneg.", "net.", "shuffle.")

#: Default virtual-time sampling interval, in driver-clock ticks
#: (one ingestion round advances the clock by ``ROUND_TICK`` = 1.0).
DEFAULT_INTERVAL = 10.0


class TextSink(Protocol):
    """Anything line-oriented text can be appended to (injected)."""

    def write(self, text: str) -> object: ...


class _NullSink:
    """Shared sink that drops every write (the null telemetry path)."""

    __slots__ = ()

    def write(self, text: str) -> object:
        return None


class TelemetryStream:
    """Appends metric samples to a sink on epoch/virtual-time cadence."""

    __slots__ = ("_metrics", "_clock", "_sink", "_interval", "_next_due",
                 "_record_bytes", "_seq", "enabled",
                 "lines_written")

    def __init__(
        self,
        metrics: MetricsRegistry,
        clock: Clock,
        sink: TextSink,
        interval: float = DEFAULT_INTERVAL,
        record_bytes: int | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"telemetry interval must be > 0, got {interval}")
        self._metrics = metrics
        self._clock = clock
        self._sink = sink
        self._interval = float(interval)
        # first tick fires once the clock crosses one whole interval
        self._next_due = clock.now() + self._interval
        #: bytes per stored record (key + value), for the derived
        #: read-amplification gauge; ``None`` skips the derivation
        self._record_bytes = record_bytes
        self._seq = 0
        self.enabled = True
        #: lines appended so far (ticks + samples); the zero-cost
        #: invariant of the null path is ``lines_written == 0``
        self.lines_written = 0

    # ------------------------------------------------------------ emission

    def _emit(self, doc: dict[str, object]) -> None:
        self._sink.write(json.dumps(doc, sort_keys=True) + "\n")
        self.lines_written += 1

    def tick(self) -> bool:
        """Emit an interval sample if the clock crossed the cadence.

        Restricted to :data:`DRIVER_SCOPE_PREFIXES` (see module
        docstring); returns whether a sample was written.  Called from
        the ``CarpRun`` round loop; a disabled stack carries
        :data:`NULL_TELEMETRY`, whose ``tick`` does nothing.
        """
        now = self._clock.now()
        if now < self._next_due:
            return False
        self._next_due = now + self._interval
        snap = self._metrics.snapshot()
        counters = snap.get("counters")
        gauges = snap.get("gauges")
        assert isinstance(counters, dict) and isinstance(gauges, dict)
        doc: dict[str, object] = {
            "kind": "tick",
            "seq": self._seq,
            "ts": now,
            "counters": {
                n: v for n, v in counters.items()
                if str(n).startswith(DRIVER_SCOPE_PREFIXES)
            },
            "gauges": {
                n: v for n, v in gauges.items()
                if str(n).startswith(DRIVER_SCOPE_PREFIXES)
            },
        }
        self._seq += 1
        self._emit(doc)
        return True

    def sample(
        self,
        kind: str,
        epoch: int | None = None,
        request: str | None = None,
    ) -> dict[str, object]:
        """Emit a full-registry sample (merge points only).

        ``kind`` labels the cadence point (``epoch`` | ``query`` |
        ``final``); ``request`` attributes the sample to the
        originating request.  Returns the emitted document.
        """
        snap = self._metrics.snapshot()
        counters = snap.get("counters")
        assert isinstance(counters, dict)
        doc: dict[str, object] = {
            "kind": kind,
            "seq": self._seq,
            "ts": self._clock.now(),
            "counters": counters,
            "gauges": snap.get("gauges"),
            "histograms": snap.get("histograms"),
            "derived": self._derived(
                {str(n): float(v) for n, v in counters.items()}
            ),
        }
        if epoch is not None:
            doc["epoch"] = epoch
        if request is not None:
            doc["request"] = request
        self._seq += 1
        self._emit(doc)
        return doc

    def _derived(self, counters: Mapping[str, float]) -> dict[str, float]:
        out: dict[str, float] = {
            "faults_total": sum(
                v for n, v in counters.items() if n.startswith("faults.")
            ),
        }
        if self._record_bytes:
            matched = counters.get("query.records_matched", 0.0)
            probed = counters.get("query.probe_bytes", 0.0)
            # bytes fetched per byte the query actually needed — the
            # paper's read-amplification factor, as a running SLO gauge
            out["read_amp"] = (
                probed / (matched * self._record_bytes) if matched else 0.0
            )
        return out


class NullTelemetryStream(TelemetryStream):
    """Shared no-op stream: the telemetry half of ``NULL_OBS``."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(NullMetricsRegistry(), NullClock(), _NullSink())
        self.enabled = False

    def tick(self) -> bool:
        return False

    def sample(
        self,
        kind: str,
        epoch: int | None = None,
        request: str | None = None,
    ) -> dict[str, object]:
        return {}


#: The do-nothing stream hot paths see when telemetry is not attached.
NULL_TELEMETRY = NullTelemetryStream()
