"""Renegotiation protocols: naive all-to-root and tree-based (TRP).

Renegotiation replaces the replicated partition table with a new one
computed from the latest global key-distribution estimate (paper §V-C).
Each rank contributes a pivot set (histogram sampling); the pivot sets
are merged with the pivot-union primitive; and the merged global
distribution is divided into ``nranks`` equal-mass partitions.

Two implementations are provided:

* :func:`negotiate_naive` — all ranks' pivots are collected directly on
  rank 0 and merged in one shot.  Memory and network cost scale
  linearly with ranks.

* :func:`negotiate_trp` — the *Tree-based Renegotiation Protocol*
  (paper §VI): pivot union is associative and commutative, so it runs
  as a lossy reduction over a shallow tree (default fan-out 64, depth
  <= 3).  Intermediate nodes merge their children's pivots and resample
  to the configured pivot width before forwarding, trading a little
  accuracy for logarithmic scaling.

Both return the new partition bounds plus a :class:`RenegStats` that a
network model (see :mod:`repro.sim.netmodel`) can turn into a simulated
round latency.  A CARP run always calls :func:`negotiate` (TRP at
fan-out 64); the naive protocol and other fan-outs serve the TRP
ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pivots import Pivots, partition_bounds_from_pivots, pivot_union
from repro.obs import MESSAGE_TICK, NULL_OBS, Obs

#: On-wire size of one pivot point (a float64 key value).
PIVOT_POINT_BYTES = 8
#: Fixed per-message overhead (headers, counts) in bytes.
MESSAGE_OVERHEAD_BYTES = 64


@dataclass
class RenegStats:
    """Communication structure of one renegotiation round.

    ``levels`` lists, for each reduction level from leaves to root, the
    tuple ``(senders, max_fanin, message_bytes)``: how many ranks send,
    the largest number of messages any receiver merges, and the size of
    each pivot message.  A network model converts this into latency.
    """

    nranks: int
    pivot_width: int
    levels: list[tuple[int, int, int]] = field(default_factory=list)
    broadcast_bytes: int = 0

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def total_messages(self) -> int:
        return sum(senders for senders, _, _ in self.levels)

    @property
    def total_bytes(self) -> int:
        up = sum(senders * nbytes for senders, _, nbytes in self.levels)
        return up + self.nranks * self.broadcast_bytes


def _message_bytes(pivot_width: int) -> int:
    return MESSAGE_OVERHEAD_BYTES + pivot_width * PIVOT_POINT_BYTES


def negotiate_naive(
    rank_pivots: list[Pivots | None], nparts: int, pivot_width: int
) -> tuple[np.ndarray, RenegStats]:
    """Single-shot renegotiation: merge all ranks' pivots on rank 0."""
    nranks = len(rank_pivots)
    merged = pivot_union(rank_pivots, pivot_width)
    bounds = partition_bounds_from_pivots(merged, nparts)
    msg = _message_bytes(pivot_width)
    stats = RenegStats(
        nranks=nranks,
        pivot_width=pivot_width,
        levels=[(max(nranks - 1, 0), max(nranks - 1, 1), msg)],
        broadcast_bytes=MESSAGE_OVERHEAD_BYTES + (nparts + 1) * PIVOT_POINT_BYTES,
    )
    return bounds, stats


def trp_tree_levels(nranks: int, fanout: int) -> list[int]:
    """Group sizes per reduction level for ``nranks`` leaves.

    Returns the number of *groups* at each level walking up the tree;
    the last level always has a single group (the root).
    """
    if nranks < 1:
        raise ValueError("nranks must be >= 1")
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    sizes = []
    width = nranks
    while width > 1:
        width = -(-width // fanout)  # ceil division
        sizes.append(width)
    if not sizes:
        sizes = [1]
    return sizes


def negotiate_trp(
    rank_pivots: list[Pivots | None],
    nparts: int,
    pivot_width: int,
    fanout: int = 64,
    obs: Obs | None = None,
) -> tuple[np.ndarray, RenegStats]:
    """Tree-based renegotiation (TRP).

    Merges pivots level by level: each group of up to ``fanout``
    contributions is unioned and resampled to ``pivot_width`` points
    before being forwarded, so message sizes stay constant while the
    number of participants shrinks geometrically.  With a recording
    ``obs``, each reduction level is traced as one span on the
    ``renegotiate``/``trp`` track.
    """
    nranks = len(rank_pivots)
    msg = _message_bytes(pivot_width)
    stats = RenegStats(nranks=nranks, pivot_width=pivot_width)
    obs = obs if obs is not None else NULL_OBS
    tr_trp = obs.track("renegotiate", "trp")

    current: list[Pivots | None] = list(rank_pivots)
    level = 0
    while len(current) > 1:
        groups = [current[i : i + fanout] for i in range(0, len(current), fanout)]
        merged: list[Pivots | None] = []
        max_fanin = 0
        senders = 0
        for g in groups:
            live = [p for p in g if p is not None and p.count > 0]
            # group leader is one of the members; the rest send a message
            senders += max(len(g) - 1, 0)
            max_fanin = max(max_fanin, len(g) - 1)
            if not live:
                merged.append(None)
            elif len(live) == 1:
                merged.append(live[0])
            else:
                merged.append(pivot_union(live, pivot_width))
        stats.levels.append((senders, max(max_fanin, 1), msg))
        if obs.enabled:
            dur = max(max_fanin, 1) * MESSAGE_TICK
            t0 = obs.clock.now()
            obs.clock.advance(dur)
            # per-level span name, bounded by the tree depth
            # (log_fanin(nranks)) — the sanctioned exception to static
            # instrument names.
            obs.tracer.complete(
                tr_trp, f"level {level}", t0, dur,  # carp-lint: disable-line=O503
                {"level": level, "groups": len(groups), "senders": senders,
                 "max_fanin": max(max_fanin, 1), "message_bytes": msg},
            )
        current = merged
        level += 1

    root = current[0]
    if root is None:
        raise ValueError("renegotiation with no observed keys on any rank")
    bounds = partition_bounds_from_pivots(root, nparts)
    stats.broadcast_bytes = MESSAGE_OVERHEAD_BYTES + (nparts + 1) * PIVOT_POINT_BYTES
    return bounds, stats


def synthetic_reneg_stats(
    nranks: int, pivot_width: int, fanout: int = 64, nparts: int | None = None
) -> RenegStats:
    """The communication structure TRP would have at a given scale.

    Builds the same :class:`RenegStats` a real TRP round produces, but
    purely structurally — no pivot data needed.  Used to evaluate the
    renegotiation latency model at scales (e.g. 2048 ranks, Fig. 10a)
    where running the full logical simulation would be wasteful.
    """
    msg = _message_bytes(pivot_width)
    stats = RenegStats(nranks=nranks, pivot_width=pivot_width)
    current = nranks
    while current > 1:
        groups = -(-current // fanout)
        senders = current - groups
        max_fanin = min(fanout, current) - 1
        stats.levels.append((senders, max(max_fanin, 1), msg))
        current = groups
    parts = nparts if nparts is not None else nranks
    stats.broadcast_bytes = MESSAGE_OVERHEAD_BYTES + (parts + 1) * PIVOT_POINT_BYTES
    return stats


def negotiate(
    rank_pivots: list[Pivots | None],
    nparts: int,
    pivot_width: int,
    obs: Obs | None = None,
) -> tuple[np.ndarray, RenegStats]:
    """The renegotiation a CARP run performs: TRP at the paper's fanout."""
    return negotiate_trp(rank_pivots, nparts, pivot_width, obs=obs)
