"""Tests for the range-reader's analyze mode and a single query."""

import pytest

from repro.query.engine import PartitionedStore
from repro.query.reader import analyze_store


@pytest.fixture(scope="module")
def store(carp_output):
    with PartitionedStore(carp_output["dir"]) as s:
        yield s


class TestAnalyze:
    def test_basic_stats(self, store, trace_keys):
        analysis = analyze_store(store, epoch=0)
        assert analysis.total_records == len(trace_keys[0])
        assert analysis.ssts > 0
        assert analysis.epochs == (0, 1)

    def test_probe_selectivity_positive(self, store):
        analysis = analyze_store(store, epoch=0, probes=5)
        assert len(analysis.probe_selectivity) == 5
        assert all(0 < s <= 1 for s in analysis.probe_selectivity)

    def test_median_selectivity(self, store):
        analysis = analyze_store(store, epoch=0)
        assert 0 < analysis.median_selectivity < 1

    def test_default_epoch_is_first(self, store):
        assert (analyze_store(store).total_records
                == analyze_store(store, epoch=0).total_records)


class TestQuery:
    def test_single_query(self, store, trace_keys, trace_rids):
        res = store.query(0, 0.5, 2.0)
        mask = (trace_keys[0] >= 0.5) & (trace_keys[0] <= 2.0)
        assert set(res.rids.tolist()) == set(trace_rids[0][mask].tolist())
