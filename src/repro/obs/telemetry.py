"""Streaming metrics export: the live telemetry plane.

A :class:`TelemetryStream` turns the end-of-run
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` into a *time
series*: samples are appended to an injected sink as JSON lines
(``telemetry.jsonl``) while the run is still in flight, on two
cadences —

* **virtual-time ticks** (:meth:`TelemetryStream.tick`), emitted from
  the ``CarpRun`` round loop whenever the driver clock crosses the
  sampling interval.  Tick samples are restricted to *driver-owned*
  metric prefixes (:data:`DRIVER_SCOPE_PREFIXES`): mid-epoch, storage
  counters live in rank-local registries that only merge into the
  driver at epoch end and close, so the scoped subset is what the
  driver has actually seen mid-epoch.
* **full samples** (:meth:`TelemetryStream.sample`), emitted at epoch
  end, after each query, and at session close — the points where the
  rank registries have merged and the whole registry is
  deterministic.  Full samples carry cumulative counters, counter
  *deltas* since the previous full sample (per-request attribution
  when the sample is tagged with a request id), gauges, histogram
  state including bucket ``bounds``/``counts`` and the
  p50/p95/p99 bucket-upper-bound quantiles, and derived SLO gauges
  (read amplification, fault totals).

Everything is injected — the metrics registry, the clock, and the
output sink — never acquired here (no ``open()`` or wall clock at
module or constructor scope; carp-lint rule O504 enforces this), so
the stream is as deterministic and testable as the rest of the stack.
:data:`NULL_TELEMETRY` is the shared zero-overhead null path: hot-path
hooks are no-ops and nothing is ever written.

:func:`render_openmetrics` renders a snapshot in the OpenMetrics-style
text exposition format, for scrape-compatible dashboards.
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
                 "_record_bytes", "_seq", "_prev_counters", "enabled",
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
        self._prev_counters: dict[str, float] = {}
        self.enabled = True
        #: lines appended so far (ticks + samples); the zero-cost
        #: invariant of the null path is ``lines_written == 0``
        self.lines_written = 0

    # ------------------------------------------------------------ emission

    def _emit(self, doc: dict[str, object]) -> None:
        self._sink.write(json.dumps(doc, sort_keys=True) + "\n")
        self.lines_written += 1

    def _counters(self) -> dict[str, float]:
        snap = self._metrics.snapshot()
        counters = snap.get("counters")
        assert isinstance(counters, dict)
        return {str(n): float(v) for n, v in counters.items()}

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
        ``final``); ``request`` attributes the sample — and therefore
        its counter ``deltas`` since the previous full sample — to the
        originating request.  Returns the emitted document.
        """
        snap = self._metrics.snapshot()
        counters = snap.get("counters")
        assert isinstance(counters, dict)
        cur = {str(n): float(v) for n, v in counters.items()}
        deltas = {
            name: value - self._prev_counters.get(name, 0.0)
            for name, value in cur.items()
        }
        self._prev_counters = cur
        doc: dict[str, object] = {
            "kind": kind,
            "seq": self._seq,
            "ts": self._clock.now(),
            "counters": snap.get("counters"),
            "deltas": deltas,
            "gauges": snap.get("gauges"),
            "histograms": snap.get("histograms"),
            "derived": self._derived(cur),
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

    # ------------------------------------------------------- exposition

    def exposition(self) -> str:
        """Current registry state in OpenMetrics-style text format."""
        return render_openmetrics(self._metrics.snapshot())


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


# ---------------------------------------------------------- OpenMetrics


def _metric_name(name: str) -> str:
    """Sanitize a dotted metric name into an OpenMetrics identifier."""
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_openmetrics(snapshot: Mapping[str, object]) -> str:
    """Render a registry snapshot as OpenMetrics-style text exposition.

    Counters become ``<name>_total``, gauges plain samples, histograms
    cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count`` —
    the subset of the format scrape-side tooling needs.  A pure
    function over plain snapshot data: rendering archived
    ``metrics.json`` files works identically to live registries.
    """
    lines: list[str] = []
    counters = snapshot.get("counters")
    if isinstance(counters, Mapping):
        for name in sorted(counters):
            value = counters[name]
            if not isinstance(value, (int, float)):
                continue
            metric = _metric_name(str(name))
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric}_total {_fmt(float(value))}")
    gauges = snapshot.get("gauges")
    if isinstance(gauges, Mapping):
        for name in sorted(gauges):
            value = gauges[name]
            if not isinstance(value, (int, float)):
                continue
            metric = _metric_name(str(name))
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_fmt(float(value))}")
    histograms = snapshot.get("histograms")
    if isinstance(histograms, Mapping):
        for name in sorted(histograms):
            data = histograms[name]
            if not isinstance(data, Mapping):
                continue
            metric = _metric_name(str(name))
            lines.append(f"# TYPE {metric} histogram")
            bounds = data.get("bounds")
            counts = data.get("counts")
            if isinstance(bounds, list) and isinstance(counts, list):
                cumulative = 0.0
                for bound, count in zip(bounds, counts):
                    if not isinstance(count, (int, float)):
                        continue
                    cumulative += float(count)
                    lines.append(
                        f'{metric}_bucket{{le="{_fmt(float(bound))}"}} '
                        f"{_fmt(cumulative)}"
                    )
                if len(counts) == len(bounds) + 1:
                    overflow = counts[-1]
                    if isinstance(overflow, (int, float)):
                        cumulative += float(overflow)
                lines.append(f'{metric}_bucket{{le="+Inf"}} {_fmt(cumulative)}')
            total = data.get("sum")
            count = data.get("count")
            if isinstance(total, (int, float)):
                lines.append(f"{metric}_sum {_fmt(float(total))}")
            if isinstance(count, (int, float)):
                lines.append(f"{metric}_count {_fmt(float(count))}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
