"""Tests for the range-reader modes (analyze / query / batch)."""

import csv

import pytest

from repro.query.engine import PartitionedStore
from repro.query.reader import (
    BatchQuerySpec,
    analyze_store,
    read_batch_csv,
    run_batch,
    write_batch_csv,
)


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


class TestBatch:
    def test_run_batch(self, store):
        queries = [
            BatchQuerySpec(0, 0.1, 0.5),
            BatchQuerySpec(0, 1.0, 5.0),
            BatchQuerySpec(1, 0.1, 0.5),
        ]
        batch = run_batch(store, queries)
        assert len(batch.results) == 3
        assert batch.total_latency > 0
        assert batch.total_matched == sum(len(r) for r in batch.results)
        assert batch.total_bytes_read > 0

    def test_query_log_written(self, store, tmp_path):
        log = tmp_path / "querylog.csv"
        run_batch(store, [BatchQuerySpec(0, 0.1, 0.2)], log_path=log)
        rows = list(csv.reader(log.open()))
        assert rows[0][0] == "epoch"
        assert len(rows) == 2
        assert rows[1][0] == "0"


class TestBatchCSV:
    def test_roundtrip(self, tmp_path):
        queries = [BatchQuerySpec(0, 0.25, 0.75), BatchQuerySpec(3, 1.5, 2.5)]
        path = tmp_path / "batch.csv"
        write_batch_csv(queries, path)
        assert read_batch_csv(path) == queries

    def test_artifact_format(self, tmp_path):
        """The artifact's format: epoch,query_begin,query_end rows."""
        path = tmp_path / "batch.csv"
        path.write_text("0,1.0,2.0\n# comment\n1,3.0,4.0\n")
        queries = read_batch_csv(path)
        assert queries == [BatchQuerySpec(0, 1.0, 2.0), BatchQuerySpec(1, 3.0, 4.0)]

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_text("0,1.0\n")
        with pytest.raises(ValueError, match="bad batch row"):
            read_batch_csv(path)
