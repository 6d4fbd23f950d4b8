"""Integration-grade unit tests for the CARP run driver."""

import numpy as np
import pytest

from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.core.renegotiation import negotiate_naive
from repro.core.triggers import TriggerReason
from repro.storage.log import LogReader, list_logs

OPTS = CarpOptions(
    pivot_count=32,
    oob_capacity=32,
    renegotiations_per_epoch=3,
    memtable_records=256,
    round_records=128,
    value_size=8,
)


def uniform_streams(nranks, n, seed=0, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return [
        RecordBatch.from_keys(
            rng.uniform(lo, hi, n).astype(np.float32), rank=r, value_size=8
        )
        for r in range(nranks)
    ]


def stored_records(directory, epoch):
    total = 0
    for path in list_logs(directory):
        with LogReader(path) as r:
            total += sum(e.count for e in r.entries_for(epoch=epoch))
    return total


class TestIngestEpoch:
    def test_all_records_persisted(self, tmp_path):
        streams = uniform_streams(4, 500)
        with CarpRun(4, tmp_path, OPTS) as run:
            stats = run.ingest_epoch(0, streams)
        assert stats.records == 2000
        assert stored_records(tmp_path, 0) == 2000

    def test_no_records_lost_or_duplicated(self, tmp_path):
        streams = uniform_streams(4, 300, seed=3)
        expect = sorted(
            np.concatenate([s.rids for s in streams]).tolist()
        )
        with CarpRun(4, tmp_path, OPTS) as run:
            run.ingest_epoch(0, streams)
        got = []
        for path in list_logs(tmp_path):
            with LogReader(path) as r:
                for e in r.entries_for(epoch=0):
                    got.extend(r.read_sst(e).batch.rids.tolist())
        assert sorted(got) == expect

    def test_bootstrap_renegotiation_always_happens(self, tmp_path):
        with CarpRun(2, tmp_path, OPTS) as run:
            stats = run.ingest_epoch(0, uniform_streams(2, 200))
        assert stats.triggers.count(TriggerReason.BOOTSTRAP) >= 1

    def test_periodic_renegotiations_roughly_as_configured(self, tmp_path):
        opts = OPTS.with_(renegotiations_per_epoch=5, oob_capacity=128)
        with CarpRun(4, tmp_path, opts) as run:
            stats = run.ingest_epoch(0, uniform_streams(4, 2000))
        periodic = stats.triggers.count(TriggerReason.PERIODIC)
        assert 3 <= periodic <= 6

    def test_huge_oob_capacity_still_persists_everything(self, tmp_path):
        """Buffers that never fill are flushed by the epoch-end trigger."""
        opts = OPTS.with_(oob_capacity=100_000)
        with CarpRun(4, tmp_path, opts) as run:
            stats = run.ingest_epoch(0, uniform_streams(4, 500))
        assert stats.triggers.count(TriggerReason.EPOCH_FLUSH) >= 1
        assert stored_records(tmp_path, 0) == 2000

    def test_balanced_partitions_for_uniform_keys(self, tmp_path):
        with CarpRun(8, tmp_path, OPTS.with_(pivot_count=128)) as run:
            stats = run.ingest_epoch(0, uniform_streams(8, 2000))
        assert stats.load_stddev < 0.1

    def test_skewed_keys_still_balanced(self, tmp_path):
        rng = np.random.default_rng(1)
        streams = [
            RecordBatch.from_keys(
                rng.lognormal(0, 1.5, 2000).astype(np.float32), rank=r, value_size=8
            )
            for r in range(8)
        ]
        with CarpRun(8, tmp_path, OPTS.with_(pivot_count=256)) as run:
            stats = run.ingest_epoch(0, streams)
        assert stats.load_stddev < 0.25

    def test_multiple_epochs(self, tmp_path):
        with CarpRun(4, tmp_path, OPTS) as run:
            s0 = run.ingest_epoch(0, uniform_streams(4, 400, seed=0))
            s1 = run.ingest_epoch(1, uniform_streams(4, 400, seed=1, lo=10, hi=20))
        assert stored_records(tmp_path, 0) == 1600
        assert stored_records(tmp_path, 1) == 1600
        # epoch 1 bootstrapped fresh (no stale bounds from epoch 0)
        assert s1.triggers.count(TriggerReason.BOOTSTRAP) >= 1
        assert s1.final_table.lo >= 9.0

    def test_wrong_stream_count_rejected(self, tmp_path):
        with CarpRun(4, tmp_path, OPTS) as run:
            with pytest.raises(ValueError, match="streams"):
                run.ingest_epoch(0, uniform_streams(3, 10))

    def test_empty_epoch_rejected(self, tmp_path):
        empty = [RecordBatch.empty(8) for _ in range(2)]
        with CarpRun(2, tmp_path, OPTS) as run:
            with pytest.raises(ValueError, match="empty"):
                run.ingest_epoch(0, empty)

    def test_single_rank(self, tmp_path):
        with CarpRun(1, tmp_path, OPTS) as run:
            stats = run.ingest_epoch(0, uniform_streams(1, 500))
        assert stats.records == 500
        assert stored_records(tmp_path, 0) == 500

    def test_identical_keys_degenerate(self, tmp_path):
        streams = [
            RecordBatch.from_keys(np.full(300, 7.0, np.float32), rank=r, value_size=8)
            for r in range(4)
        ]
        with CarpRun(4, tmp_path, OPTS) as run:
            stats = run.ingest_epoch(0, streams)
        assert stored_records(tmp_path, 0) == 1200

    def test_uneven_stream_lengths(self, tmp_path):
        rng = np.random.default_rng(5)
        streams = [
            RecordBatch.from_keys(rng.random(n).astype(np.float32), rank=r,
                                  value_size=8)
            for r, n in enumerate([100, 700, 5, 350])
        ]
        with CarpRun(4, tmp_path, OPTS) as run:
            stats = run.ingest_epoch(0, streams)
        assert stats.records == 1155
        assert stored_records(tmp_path, 0) == 1155

    def test_final_table_covers_all_keys(self, tmp_path):
        streams = uniform_streams(4, 500, seed=9)
        all_keys = np.concatenate([s.keys for s in streams])
        with CarpRun(4, tmp_path, OPTS) as run:
            stats = run.ingest_epoch(0, streams)
        # drift means the final table may not cover early keys, but it
        # must cover the keys seen since the last renegotiation; for a
        # stationary stream it covers (nearly) everything
        table = stats.final_table
        frac_covered = np.mean(
            (all_keys >= table.lo) & (all_keys <= table.hi)
        )
        assert frac_covered > 0.95

    def test_stray_records_appear_with_delay(self, tmp_path):
        opts = OPTS.with_(shuffle_delay_rounds=2, renegotiations_per_epoch=6)
        rng = np.random.default_rng(2)
        # drifting keys force boundary movement -> strays
        streams = [
            RecordBatch.from_keys(
                (rng.random(2000) * np.linspace(1, 5, 2000)).astype(np.float32),
                rank=r, value_size=8,
            )
            for r in range(4)
        ]
        with CarpRun(4, tmp_path, opts) as run:
            stats = run.ingest_epoch(0, streams)
        assert stats.stray_records > 0
        assert stored_records(tmp_path, 0) == stats.records

    def test_zero_delay_no_strays(self, tmp_path):
        opts = OPTS.with_(shuffle_delay_rounds=0)
        with CarpRun(4, tmp_path, opts) as run:
            stats = run.ingest_epoch(0, uniform_streams(4, 800))
        assert stats.stray_records == 0

    def test_reneg_stats_recorded(self, tmp_path):
        with CarpRun(4, tmp_path, OPTS) as run:
            stats = run.ingest_epoch(0, uniform_streams(4, 800))
        assert len(stats.reneg_stats) == stats.renegotiations
        for r in stats.reneg_stats:
            assert r.nranks == 4
            assert r.pivot_width == OPTS.pivot_count

    def test_naive_protocol_equivalent_storage(self, tmp_path, monkeypatch):
        # a run always negotiates with TRP; swap in the naive protocol
        # (kept for the TRP ablation) to check it stores the same data
        def naive(rank_pivots, nparts, pivot_width, obs=None):
            return negotiate_naive(rank_pivots, nparts, pivot_width)

        monkeypatch.setattr("repro.core.carp.negotiate", naive)
        with CarpRun(4, tmp_path, OPTS) as run:
            stats = run.ingest_epoch(0, uniform_streams(4, 500))
        assert stats.renegotiations > 0
        assert stored_records(tmp_path, 0) == stats.records

    def test_partition_loads_sum_to_records(self, tmp_path):
        with CarpRun(4, tmp_path, OPTS) as run:
            stats = run.ingest_epoch(0, uniform_streams(4, 600))
        assert stats.partition_loads.sum() == stats.records

    def test_epoch_history_accumulates(self, tmp_path):
        with CarpRun(2, tmp_path, OPTS) as run:
            run.ingest_epoch(0, uniform_streams(2, 200, seed=0))
            run.ingest_epoch(1, uniform_streams(2, 200, seed=1))
            assert [s.epoch for s in run.epoch_history] == [0, 1]
