"""Counters, gauges, and bounded histograms for the CARP data plane.

A :class:`MetricsRegistry` is the single mutable sink every
instrumented subsystem writes into: routing increments counters, KoiDB
sets memtable-occupancy gauges, flushes observe histogram samples.
:meth:`MetricsRegistry.snapshot` renders the whole registry as plain
JSON-serializable data, which ``carp-trace`` persists next to the
trace and reconciles against ``EpochStats``/``KoiDBStats``.

The ``Null*`` variants share the registry's interface but drop every
write, so instrumented hot paths cost a no-op method call when
observability is off.
"""

from __future__ import annotations

import bisect
import json
import math
from collections.abc import Mapping, Sequence
from pathlib import Path


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def add(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (n={n})")
        self.value += n


class Gauge:
    """A point-in-time value (e.g. current memtable occupancy)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)


class Histogram:
    """A bounded-bucket histogram.

    ``bounds`` are the inclusive upper edges of the first
    ``len(bounds)`` buckets; one overflow bucket catches everything
    above the last bound, so the memory footprint is fixed no matter
    how many samples arrive.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        edges = [float(b) for b in bounds]
        if not edges:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        if sorted(edges) != edges or len(set(edges)) != len(edges):
            raise ValueError(
                f"histogram {name} bounds must be strictly increasing: {edges}"
            )
        self.name = name
        self.bounds: tuple[float, ...] = tuple(edges)
        self.counts: list[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, v: float) -> None:
        v = float(v)
        # bucket i holds samples with v <= bounds[i]; the final bucket
        # is the unbounded overflow
        self.counts[bisect.bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Bucket-upper-bound approximation of the ``q``-quantile.

        Walks the cumulative bucket counts and returns the inclusive
        upper edge of the bucket containing the ``q``-th sample — an
        *upper bound* on the true quantile, exact to bucket resolution
        (the standard trade-off of bounded histograms).  A quantile
        landing in the overflow bucket reports the observed ``max``;
        ``None`` when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        # the smallest 1-based sample index at or above quantile q
        target = max(1, math.ceil(self.count * q))
        cumulative = 0
        for i, n in enumerate(self.counts):
            cumulative += n
            if cumulative >= target:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.max  # overflow bucket: only max bounds it
        return self.max

    def to_dict(self) -> dict[str, object]:
        # p50/p95/p99 are bucket-upper-bound approximations (see
        # quantile()); min/max/mean are exact
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named metrics, created on first use and rendered as one snapshot."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # --------------------------------------------------------- creation

    def counter(self, name: str) -> Counter:
        self._check_free(name, self._counters)
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        self._check_free(name, self._gauges)
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        self._check_free(name, self._histograms)
        existing = self._histograms.get(name)
        if existing is not None:
            if existing.bounds != tuple(float(b) for b in bounds):
                raise ValueError(
                    f"histogram {name} re-registered with different bounds"
                )
            return existing
        hist = Histogram(name, bounds)
        self._histograms[name] = hist
        return hist

    def _check_free(self, name: str, own: Mapping[str, object]) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not own and name in kind:
                raise ValueError(f"metric {name!r} already registered "
                                 "as a different type")

    # ---------------------------------------------------------- reading

    def counter_value(self, name: str) -> float:
        """Total of a counter; 0 if it was never touched."""
        c = self._counters.get(name)
        return c.value if c is not None else 0

    def snapshot(self) -> dict[str, object]:
        """The whole registry as JSON-serializable plain data."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def write_json(self, path: Path | str) -> Path:
        """Persist :meth:`snapshot` as pretty-printed JSON."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.snapshot(), indent=2) + "\n")
        return target

    # --------------------------------------------------- worker merging

    def merge_worker_delta(self, delta: Mapping[str, object]) -> None:
        """Fold a rank-local registry's :func:`snapshot_delta` into this one.

        Each receiver rank's KoiDB records into its own private registry
        (``Obs.deltas()``); the driver merges the deltas in rank order,
        so ``metrics.json`` does not depend on when within an epoch a
        rank did its work.  Counters accumulate their
        (integer, hence exact) deltas; gauges and histograms arrive as
        cumulative worker-side state and *replace* the driver's copy —
        exact because their names are per-shard-exclusive (e.g.
        ``koidb.memtable_occupancy.r3``), where re-summing floats in a
        different order would not be.
        """
        counters = delta.get("counters", {})
        assert isinstance(counters, Mapping)
        for name, inc in counters.items():
            assert isinstance(inc, (int, float))
            # register even for a zero delta: a serial run registers
            # every instrument at construction, and snapshots must match
            self.counter(name).add(inc)
        gauges = delta.get("gauges", {})
        assert isinstance(gauges, Mapping)
        for name, value in gauges.items():
            assert isinstance(value, (int, float))
            self.gauge(name).set(value)
        histograms = delta.get("histograms", {})
        assert isinstance(histograms, Mapping)
        for name, data in histograms.items():
            assert isinstance(data, Mapping)
            bounds = data["bounds"]
            assert isinstance(bounds, Sequence)
            hist = self.histogram(name, bounds)
            counts = data["counts"]
            assert isinstance(counts, Sequence)
            count, total = data["count"], data["sum"]
            assert isinstance(count, int) and isinstance(total, (int, float))
            hmin, hmax = data["min"], data["max"]
            assert hmin is None or isinstance(hmin, (int, float))
            assert hmax is None or isinstance(hmax, (int, float))
            hist.counts = [int(c) for c in counts]
            hist.count = count
            hist.total = float(total)
            hist.min = float(hmin) if hmin is not None else float("inf")
            hist.max = float(hmax) if hmax is not None else float("-inf")


def snapshot_delta(
    cur: Mapping[str, object], prev: Mapping[str, object]
) -> dict[str, object]:
    """What changed between two registry snapshots, as mergeable data.

    Counters become numeric deltas (monotonic, so always >= 0); gauges
    and histograms are carried as the *cumulative* current state, since
    float state cannot be delta'd exactly — see
    :meth:`MetricsRegistry.merge_worker_delta` for the matching merge
    semantics.
    """
    cur_counters = cur.get("counters", {})
    prev_counters = prev.get("counters", {})
    assert isinstance(cur_counters, Mapping)
    assert isinstance(prev_counters, Mapping)
    counters: dict[str, float] = {}
    for name, value in cur_counters.items():
        assert isinstance(value, (int, float))
        before = prev_counters.get(name, 0)
        assert isinstance(before, (int, float))
        # zero deltas are kept: merging registers the instrument, so
        # the driver snapshot carries the same names a serial run would
        counters[name] = value - before
    cur_gauges = cur.get("gauges", {})
    cur_histograms = cur.get("histograms", {})
    assert isinstance(cur_gauges, Mapping)
    assert isinstance(cur_histograms, Mapping)
    return {
        "counters": counters,
        "gauges": dict(cur_gauges),
        "histograms": {n: dict(h) for n, h in cur_histograms.items()
                       if isinstance(h, Mapping)},
    }


class NullCounter(Counter):
    """Shared counter that ignores every increment."""

    __slots__ = ()

    def add(self, n: float = 1) -> None:
        return None


class NullGauge(Gauge):
    """Shared gauge that ignores every set."""

    __slots__ = ()

    def set(self, v: float) -> None:
        return None


class NullHistogram(Histogram):
    """Shared histogram that ignores every sample."""

    __slots__ = ()

    def observe(self, v: float) -> None:
        return None


class NullMetricsRegistry(MetricsRegistry):
    """Registry that hands out shared no-op instruments."""

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = NullCounter("null")
        self._null_gauge = NullGauge("null")
        self._null_histogram = NullHistogram("null", (1.0,))

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        return self._null_histogram

    def snapshot(self) -> dict[str, object]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge_worker_delta(self, delta: Mapping[str, object]) -> None:
        # dropping the merge keeps the shared no-op instruments pristine
        return None
