"""Rank-local key histograms.

Each CARP rank tracks a lightweight, lossy representation of the keys
it has shuffled since the last renegotiation (paper §V-C1): a histogram
whose bins are the *current partition table's ranges* — one bin per
application rank.  For every processed key the owning bin's counter is
incremented.  At renegotiation time the histogram (together with the
rank's OOB buffer contents) is converted into pivots.

Before the first partition table exists (epoch bootstrap) the histogram
has no edges and all information lives in the OOB buffer.
"""

from __future__ import annotations

import numpy as np

from repro.core.partition import PartitionTable


class RankHistogram:
    """A per-rank key histogram binned by the current partition table."""

    def __init__(self, edges: np.ndarray | None = None) -> None:
        self._edges: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        if edges is not None:
            self.rebin(np.asarray(edges, dtype=np.float64))

    @classmethod
    def for_table(cls, table: PartitionTable) -> "RankHistogram":
        return cls(table.bounds)

    @property
    def is_empty(self) -> bool:
        """True when no keys have been observed (or no edges are set)."""
        return self._counts is None or self._counts.sum() == 0

    @property
    def edges(self) -> np.ndarray:
        if self._edges is None:
            raise RuntimeError("histogram has no edges yet (epoch bootstrap)")
        return self._edges

    @property
    def counts(self) -> np.ndarray:
        if self._counts is None:
            raise RuntimeError("histogram has no edges yet (epoch bootstrap)")
        return self._counts

    @property
    def total(self) -> int:
        return 0 if self._counts is None else int(self._counts.sum())

    def rebin(self, edges: np.ndarray) -> None:
        """Reset counters and adopt new bin edges (after renegotiation)."""
        edges = np.asarray(edges, dtype=np.float64)
        if edges.ndim != 1 or len(edges) < 2:
            raise ValueError("edges must be 1-D with at least 2 values")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("edges must be strictly increasing")
        self._edges = edges
        self._counts = np.zeros(len(edges) - 1, dtype=np.int64)

    def reset(self) -> None:
        """Zero the counters, keeping the current edges."""
        if self._counts is not None:
            self._counts[:] = 0

    def observe(self, keys: np.ndarray) -> None:
        """Record a batch of keys (vectorized).

        Keys outside the edge range are clamped into the first/last bin:
        by the time ``observe`` is called the sender has already decided
        the key was in-bounds, so this only papers over float32/float64
        rounding at the extremes.
        """
        if self._edges is None:
            raise RuntimeError("cannot observe keys before edges are set")
        keys = np.asarray(keys, dtype=np.float64)
        if len(keys) == 0:
            return
        idx = np.searchsorted(self._edges, keys, side="right") - 1
        np.clip(idx, 0, len(self._counts) - 1, out=idx)
        self._counts += np.bincount(idx, minlength=len(self._counts))

    def observe_routed(self, dests: np.ndarray) -> None:
        """Record a batch of keys by the partitions they were routed to.

        With this histogram rebinned to the routing table's bounds this
        counts exactly what :meth:`observe` of the same keys would:
        both place a key by float64 ``searchsorted(side="right")`` on
        the same edges and fold the top bound into the last bin.
        """
        if self._counts is None:
            raise RuntimeError("cannot observe keys before edges are set")
        if len(dests):
            self._counts += np.bincount(dests, minlength=len(self._counts))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._edges is None:
            return "RankHistogram(<no edges>)"
        return f"RankHistogram(bins={len(self._counts)}, total={self.total})"


def oracle_histogram(keys: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform-bin histogram over the full key range of ``keys``.

    Used by the static-partitioning and pivot-lossiness studies
    (Figs. 9 and 10b), which build *oracle* distributions from perfect
    knowledge of a timestep.  Returns ``(edges, counts)``.
    """
    keys = np.asarray(keys, dtype=np.float64)
    if len(keys) == 0:
        raise ValueError("cannot build an oracle histogram from no keys")
    lo, hi = float(keys.min()), float(keys.max())
    if lo == hi:
        # degenerate single-valued distribution: give the histogram a
        # tiny but bin-resolvable width around the value
        hi = lo + max(abs(lo), 1.0) * 1e-6
    counts, edges = np.histogram(keys, bins=bins, range=(lo, hi))
    return edges.astype(np.float64), counts.astype(np.int64)
