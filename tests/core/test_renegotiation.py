"""Unit tests for the renegotiation protocols (naive and TRP)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pivots import Pivots, pivots_from_histogram
from repro.core.renegotiation import (
    negotiate,
    negotiate_naive,
    negotiate_trp,
    trp_tree_levels,
)


def rank_pivots(nranks: int, seed: int = 0, width: int = 64):
    """Pivot sets from lognormal per-rank key samples."""
    rng = np.random.default_rng(seed)
    out = []
    for r in range(nranks):
        keys = rng.lognormal(mean=r * 0.05, size=400)
        out.append(pivots_from_histogram(None, None, width, oob_keys=keys))
    return out


class TestTreeLevels:
    def test_single_rank(self):
        assert trp_tree_levels(1, 64) == [1]

    def test_fits_one_group(self):
        assert trp_tree_levels(64, 64) == [1]

    def test_two_levels(self):
        assert trp_tree_levels(65, 64) == [2, 1]

    def test_depth_three_at_scale(self):
        # 131072 ranks with fanout 64: 2048 -> 32 -> 1
        assert trp_tree_levels(131072, 64) == [2048, 32, 1]

    def test_paper_scale_depth(self):
        """Fanout 64 keeps depth <= 3 up to 262144 ranks (paper §VI)."""
        for n in (16, 512, 2048, 131072):
            assert len(trp_tree_levels(n, 64)) <= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            trp_tree_levels(0, 64)
        with pytest.raises(ValueError):
            trp_tree_levels(8, 1)


class TestNaive:
    def test_produces_nparts_bounds(self):
        bounds, stats = negotiate_naive(rank_pivots(8), nparts=8, pivot_width=64)
        assert len(bounds) == 9
        assert np.all(np.diff(bounds) >= 0)

    def test_stats_single_level(self):
        _, stats = negotiate_naive(rank_pivots(8), 8, 64)
        assert stats.depth == 1
        assert stats.levels[0][0] == 7  # n-1 senders

    def test_bounds_cover_all_ranks(self):
        pivots = rank_pivots(4)
        bounds, _ = negotiate_naive(pivots, 4, 64)
        global_min = min(p.points[0] for p in pivots)
        global_max = max(p.points[-1] for p in pivots)
        assert bounds[0] <= global_min + 1e-9
        assert bounds[-1] >= global_max - 1e-9


class TestTRP:
    def test_matches_naive_closely(self):
        """TRP is lossier than naive but lands near the same bounds."""
        pivots = rank_pivots(32, width=256)
        nb, _ = negotiate_naive(pivots, 32, 256)
        tb, _ = negotiate_trp(pivots, 32, 256, fanout=8)
        # interior bounds within a few percent in quantile space
        assert np.allclose(nb, tb, rtol=0.1, atol=0.05)

    def test_depth_matches_tree(self):
        pivots = rank_pivots(20)
        _, stats = negotiate_trp(pivots, 20, 64, fanout=4)
        assert stats.depth == len(trp_tree_levels(20, 4))

    def test_single_rank(self):
        pivots = rank_pivots(1)
        bounds, stats = negotiate_trp(pivots, 1, 64)
        assert len(bounds) == 2
        assert stats.depth == 0

    def test_handles_none_contributions(self):
        pivots = rank_pivots(8)
        pivots[2] = None
        pivots[5] = None
        bounds, _ = negotiate_trp(pivots, 8, 64, fanout=4)
        assert len(bounds) == 9

    def test_all_none_rejected(self):
        with pytest.raises(ValueError):
            negotiate_trp([None, None], 2, 64)

    def test_total_messages_less_than_naive_per_receiver(self):
        """TRP bounds any single receiver's fan-in by the fanout."""
        pivots = rank_pivots(64)
        _, stats = negotiate_trp(pivots, 64, 64, fanout=8)
        for _, max_fanin, _ in stats.levels:
            assert max_fanin <= 8

    def test_message_bytes_scale_with_pivot_width(self):
        pivots = rank_pivots(8, width=64)
        _, s64 = negotiate_trp(pivots, 8, 64)
        pivots2 = rank_pivots(8, width=512)
        _, s512 = negotiate_trp(pivots2, 8, 512)
        assert s512.levels[0][2] > s64.levels[0][2]

    def test_mass_conservation_through_tree(self):
        """Total key mass survives multi-level lossy reduction."""
        pivots = rank_pivots(16, width=32)
        total = sum(p.count for p in pivots)
        bounds, _ = negotiate_trp(pivots, 16, 32, fanout=4)
        # bounds exist and cover; mass is implicit — rebuild via union
        from repro.core.pivots import pivot_union

        merged = pivot_union(pivots, 32)
        assert merged.count == pytest.approx(total)

    @given(nranks=st.integers(1, 40), fanout=st.integers(2, 16))
    @settings(max_examples=30, deadline=None)
    def test_levels_shrink_geometrically(self, nranks, fanout):
        levels = trp_tree_levels(nranks, fanout)
        assert levels[-1] == 1
        for a, b in zip(levels, levels[1:]):
            assert b < a


class TestDispatch:
    def test_negotiate_is_trp_at_fanout_64(self):
        pivots = rank_pivots(80)
        bounds, stats = negotiate(pivots, 80, 64)
        tb, ts = negotiate_trp(pivots, 80, 64, fanout=64)
        assert np.array_equal(bounds, tb)
        assert stats.depth == ts.depth == 2
        assert stats.total_messages == ts.total_messages

    def test_broadcast_bytes_scale_with_nparts(self):
        pivots = rank_pivots(4)
        _, s_small = negotiate(pivots, 4, 64)
        _, s_large = negotiate(pivots, 64, 64)
        assert s_large.broadcast_bytes > s_small.broadcast_bytes
