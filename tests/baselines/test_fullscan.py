"""Tests for the unpartitioned layout and full-scan baseline."""

import numpy as np
import pytest

from repro.baselines.fullscan import full_scan_query, write_unpartitioned
from repro.core.records import RecordBatch
from repro.query.engine import PartitionedStore
from repro.storage.sstable import head_span_len


def streams(nranks=3, n=400, seed=0):
    rng = np.random.default_rng(seed)
    return [
        RecordBatch.from_keys(rng.random(n).astype(np.float32), rank=r,
                              value_size=8)
        for r in range(nranks)
    ]


class TestWriteUnpartitioned:
    def test_one_log_per_rank(self, tmp_path):
        write_unpartitioned(tmp_path, 0, streams())
        from repro.storage.log import list_logs

        assert len(list_logs(tmp_path)) == 3

    def test_arrival_order_preserved(self, tmp_path):
        s = streams(1, 50)
        write_unpartitioned(tmp_path, 0, s, sst_records=50)
        from repro.storage.log import LogReader, list_logs

        with LogReader(list_logs(tmp_path)[0]) as r:
            batch = r.read_sst(r.entries[0]).batch
        assert np.array_equal(batch.keys, s[0].keys)

    def test_sst_chunking(self, tmp_path):
        write_unpartitioned(tmp_path, 0, streams(1, 100), sst_records=30)
        from repro.storage.log import LogReader, list_logs

        with LogReader(list_logs(tmp_path)[0]) as r:
            assert [e.count for e in r.entries] == [30, 30, 30, 10]


class TestFullScan:
    def test_scan_reads_everything(self, tmp_path):
        s = streams()
        write_unpartitioned(tmp_path, 0, s)
        res = full_scan_query(tmp_path, 0, 0.4, 0.6)
        with PartitionedStore(tmp_path) as store:
            assert res.cost.candidate_bytes == store.total_bytes(0)
            # every byte but the SST heads, which the open verified
            heads = sum(head_span_len(e.count) for _, e in store.entries(0))
            assert res.cost.bytes_read == store.total_bytes(0) - heads

    def test_results_filtered_to_range(self, tmp_path):
        s = streams()
        keys = np.concatenate([x.keys for x in s])
        rids = np.concatenate([x.rids for x in s])
        write_unpartitioned(tmp_path, 0, s)
        res = full_scan_query(tmp_path, 0, 0.4, 0.6)
        mask = (keys >= 0.4) & (keys <= 0.6)
        assert set(res.rids.tolist()) == set(rids[mask].tolist())

    def test_range_outside_data(self, tmp_path):
        write_unpartitioned(tmp_path, 0, streams())
        res = full_scan_query(tmp_path, 0, 100.0, 200.0)
        assert len(res) == 0
        assert res.cost.bytes_read > 0  # still paid the scan
