"""Unit tests for rank-local histograms."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.histogram import RankHistogram, oracle_histogram
from repro.core.partition import OOB_DEST, PartitionTable

from tests.kernels.scalar import BACKENDS, use_backend


class TestRankHistogram:
    def test_starts_without_edges(self):
        h = RankHistogram()
        assert h.is_empty
        with pytest.raises(RuntimeError, match="no edges"):
            _ = h.edges

    def test_observe_before_edges_rejected(self):
        h = RankHistogram()
        with pytest.raises(RuntimeError):
            h.observe(np.array([1.0]))

    def test_rebin_and_observe(self):
        h = RankHistogram(np.array([0.0, 1.0, 2.0]))
        h.observe(np.array([0.5, 0.6, 1.5]))
        assert h.counts.tolist() == [2, 1]
        assert h.total == 3

    def test_one_bin_per_partition(self):
        table = PartitionTable(np.array([0.0, 1.0, 2.0, 3.0]))
        h = RankHistogram.for_table(table)
        assert len(h.counts) == table.nparts

    def test_observe_accumulates(self):
        h = RankHistogram(np.array([0.0, 1.0]))
        h.observe(np.array([0.5]))
        h.observe(np.array([0.6, 0.7]))
        assert h.total == 3

    def test_observe_empty_batch(self):
        h = RankHistogram(np.array([0.0, 1.0]))
        h.observe(np.array([]))
        assert h.total == 0

    def test_clamps_rounding_at_extremes(self):
        h = RankHistogram(np.array([0.0, 1.0, 2.0]))
        # keys nominally in-bounds but at/just past the edges
        h.observe(np.array([0.0, 2.0]))
        assert h.total == 2
        assert h.counts.tolist() == [1, 1]

    def test_reset_keeps_edges(self):
        h = RankHistogram(np.array([0.0, 1.0]))
        h.observe(np.array([0.5]))
        h.reset()
        assert h.total == 0
        assert h.edges.tolist() == [0.0, 1.0]

    def test_rebin_resets_counts(self):
        h = RankHistogram(np.array([0.0, 1.0]))
        h.observe(np.array([0.5]))
        h.rebin(np.array([0.0, 2.0, 4.0]))
        assert h.total == 0
        assert len(h.counts) == 2

    def test_rebin_validation(self):
        h = RankHistogram()
        with pytest.raises(ValueError):
            h.rebin(np.array([1.0]))
        with pytest.raises(ValueError):
            h.rebin(np.array([1.0, 1.0]))

    def test_is_empty_semantics(self):
        h = RankHistogram(np.array([0.0, 1.0]))
        assert h.is_empty
        h.observe(np.array([0.5]))
        assert not h.is_empty


def _edge_keys(bounds: np.ndarray) -> np.ndarray:
    """float32 keys at and around every bound, plus both signed zeros."""
    at = bounds.astype(np.float32)
    return np.concatenate([
        at,
        np.nextafter(at, np.float32(-np.inf)),
        np.nextafter(at, np.float32(np.inf)),
        np.array([-0.0, 0.0], np.float32),
    ])


_bound = st.one_of(
    st.floats(-1e6, 1e6, width=32),
    st.floats(-1e6, 1e6),
)


class TestObserveRouted:
    """Counting routed destinations is :meth:`RankHistogram.observe` exactly.

    The sender counts a key in the partition the table routed it to,
    instead of searching the edges again; with the histogram binned by
    the table's bounds both must agree on every in-bounds key, including
    keys equal to a bound, the top bound and the float32 neighbours of
    each bound.
    """

    @given(
        points=st.lists(_bound, min_size=2, max_size=12, unique=True),
        extra=st.lists(st.floats(-2e6, 2e6, width=32), max_size=32),
    )
    @example(points=[-1.0, 0.0, 0.5, 2.0], extra=[])
    @settings(max_examples=150, deadline=None)
    def test_matches_observe_on_both_kernels(self, points, extra):
        bounds = np.unique(np.array(points, np.float64))
        if len(bounds) < 2:
            return
        table = PartitionTable(bounds)
        keys = np.concatenate([_edge_keys(bounds), np.array(extra, np.float32)])
        for kernels in BACKENDS:
            with use_backend(kernels):
                dests = table.lookup(keys)
            sent = dests != OOB_DEST
            routed = RankHistogram.for_table(table)
            routed.observe_routed(dests[sent])
            searched = RankHistogram.for_table(table)
            searched.observe(keys[sent])
            assert routed.counts.tolist() == searched.counts.tolist(), kernels

    def test_before_edges_rejected(self):
        with pytest.raises(RuntimeError):
            RankHistogram().observe_routed(np.array([0]))


class TestOracleHistogram:
    def test_covers_full_range(self):
        keys = np.array([1.0, 5.0, 9.0])
        edges, counts = oracle_histogram(keys, bins=4)
        assert edges[0] == 1.0 and edges[-1] == 9.0
        assert counts.sum() == 3

    def test_bin_count(self):
        edges, counts = oracle_histogram(np.random.default_rng(0).random(100), 16)
        assert len(counts) == 16
        assert len(edges) == 17

    def test_identical_keys(self):
        edges, counts = oracle_histogram(np.full(10, 3.0), bins=4)
        assert counts.sum() == 10
        assert edges[0] == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            oracle_histogram(np.array([]), 4)
