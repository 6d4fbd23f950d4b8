"""Unit tests for per-rank CARP sender state."""

import numpy as np
import pytest

from repro.core.config import CarpOptions
from repro.core.partition import PartitionTable
from repro.core.rank import CarpRankState

OPTS = CarpOptions(pivot_count=16, oob_capacity=8, value_size=8)


def make_rank(r=0):
    return CarpRankState(r, OPTS)


def observe(rank, table, keys):
    """Account ``keys`` as sent under ``table`` (their routed destinations)."""
    keys = np.array(keys, np.float32)
    rank.observe_sent(keys, table.lookup(keys))


class TestCarpRankState:
    def test_no_pivots_before_any_data(self):
        assert make_rank().compute_pivots() is None

    def test_pivots_from_oob_only(self):
        rank = make_rank()
        from repro.core.records import RecordBatch

        rank.oob.add(RecordBatch.from_keys(np.array([1.0, 2.0, 3.0], np.float32),
                                           value_size=8))
        p = rank.compute_pivots()
        assert p is not None
        assert p.count == 3
        assert p.width == OPTS.pivot_count

    def test_adopt_table_rebins(self):
        rank = make_rank()
        table = PartitionTable(np.array([0.0, 1.0, 2.0]))
        rank.adopt_table(table)
        assert rank.hist.edges.tolist() == [0.0, 1.0, 2.0]

    def test_observe_sent_counts(self):
        rank = make_rank()
        table = PartitionTable(np.array([0.0, 2.0]))
        rank.adopt_table(table)
        observe(rank, table, [0.5, 1.5])
        assert rank.sent_records == 2
        assert rank.hist.total == 2

    def test_pivots_combine_hist_and_oob(self):
        rank = make_rank()
        table = PartitionTable(np.array([0.0, 1.0]))
        rank.adopt_table(table)
        observe(rank, table, [0.5, 0.6])
        from repro.core.records import RecordBatch

        rank.oob.add(RecordBatch.from_keys(np.array([5.0], np.float32),
                                           value_size=8))
        p = rank.compute_pivots()
        assert p is not None
        assert p.count == pytest.approx(3)
        assert p.points[-1] == pytest.approx(5.0)

    def test_adopt_table_resets_stats(self):
        rank = make_rank()
        table = PartitionTable(np.array([0.0, 1.0]))
        rank.adopt_table(table)
        observe(rank, table, [0.5])
        rank.adopt_table(PartitionTable(np.array([0.0, 2.0])))
        assert rank.hist.total == 0

    def test_reset_for_epoch(self):
        rank = make_rank()
        table = PartitionTable(np.array([0.0, 1.0]))
        rank.adopt_table(table)
        observe(rank, table, [0.5])
        rank.reset_for_epoch()
        assert rank.sent_records == 0
        assert rank.compute_pivots() is None
