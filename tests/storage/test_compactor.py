"""Unit tests for the compactor (sorted clustered layout builder)."""

import inspect

import numpy as np
import pytest

from repro.storage.compactor import (
    compact_all_epochs,
    compact_epoch,
    read_epoch,
    sorted_sst_boundaries,
)
from repro.storage.log import LogReader, LogWriter, list_logs, log_name


def write_carp_like(tmp_path, epochs=(0,), ranks=2, n=50, seed=0):
    """A small fake CARP output: per-rank logs with unsorted-ish data."""
    rng = np.random.default_rng(seed)
    from repro.core.records import RecordBatch, make_rids

    for r in range(ranks):
        with LogWriter(tmp_path / log_name(r)) as w:
            for ep in epochs:
                keys = rng.random(n).astype(np.float32) + r
                w.append_batch(
                    RecordBatch(keys, make_rids(r, ep * n, n), 8), ep, sort=True
                )
                w.flush_epoch(ep)


class TestReadEpoch:
    def test_reads_everything(self, tmp_path):
        write_carp_like(tmp_path, ranks=3, n=40)
        batch = read_epoch(tmp_path, 0)
        assert len(batch) == 120

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_epoch(tmp_path / "nope", 0)

    def test_missing_epoch(self, tmp_path):
        write_carp_like(tmp_path)
        with pytest.raises(ValueError, match="no data"):
            read_epoch(tmp_path, 99)


class TestCompactEpoch:
    def test_output_fully_sorted(self, tmp_path):
        write_carp_like(tmp_path / "in", ranks=3, n=64)
        out = compact_epoch(tmp_path / "in", tmp_path / "out", 0, sst_records=32)
        logs = list_logs(out)
        assert len(logs) == 1
        with LogReader(logs[0]) as r:
            prev_max = -np.inf
            total = 0
            for e in sorted(r.entries, key=lambda e: e.offset):
                b = r.read_sst(e).batch
                assert np.all(np.diff(b.keys) >= 0)
                assert b.keys[0] >= prev_max  # globally sorted across SSTs
                prev_max = b.keys[-1]
                total += len(b)
            assert total == 192

    def test_sst_sizing(self, tmp_path):
        write_carp_like(tmp_path / "in", ranks=1, n=100)
        out = compact_epoch(tmp_path / "in", tmp_path / "out", 0, sst_records=30)
        with LogReader(list_logs(out)[0]) as r:
            counts = [e.count for e in r.entries]
        assert counts == [30, 30, 30, 10]

    def test_epoch_dir_layout(self, tmp_path):
        write_carp_like(tmp_path / "in", epochs=(0, 1))
        d0 = compact_epoch(tmp_path / "in", tmp_path / "out", 0)
        d1 = compact_epoch(tmp_path / "in", tmp_path / "out", 1)
        assert d0.name == "0" and d1.name == "1"

    def test_validation(self, tmp_path):
        write_carp_like(tmp_path / "in")
        with pytest.raises(ValueError):
            compact_epoch(tmp_path / "in", tmp_path / "out", 0, sst_records=0)

    def test_no_records_lost(self, tmp_path):
        write_carp_like(tmp_path / "in", ranks=2, n=33)
        src = read_epoch(tmp_path / "in", 0)
        out = compact_epoch(tmp_path / "in", tmp_path / "out", 0, sst_records=7)
        dst = read_epoch(out, 0)
        assert sorted(dst.rids.tolist()) == sorted(src.rids.tolist())


class TestInlineCompaction:
    def test_signatures_take_no_executor(self):
        for fn in (read_epoch, compact_epoch, compact_all_epochs):
            assert "executor" not in inspect.signature(fn).parameters


class TestCompactAll:
    def test_all_epochs(self, tmp_path):
        write_carp_like(tmp_path / "in", epochs=(0, 1, 2))
        dirs = compact_all_epochs(tmp_path / "in", tmp_path / "out")
        assert [d.name for d in dirs] == ["0", "1", "2"]

    def test_missing_input(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            compact_all_epochs(tmp_path / "in", tmp_path / "out")

    def test_validation_precedes_fan_out(self, tmp_path):
        # the caller sees the plain ValueError, not a WorkerTaskError
        # wrapping it from inside an epoch task
        write_carp_like(tmp_path / "in")
        with pytest.raises(ValueError, match="sst_records"):
            compact_all_epochs(tmp_path / "in", tmp_path / "out", sst_records=0)


class TestSortedBoundaries:
    def test_boundaries_monotone(self, tmp_path):
        write_carp_like(tmp_path / "in", ranks=2, n=64)
        out = compact_epoch(tmp_path / "in", tmp_path / "out", 0, sst_records=16)
        bounds = sorted_sst_boundaries(out)
        assert len(bounds) == 9  # 128 records / 16 per SST + 1
        assert np.all(np.diff(bounds) >= 0)

    def test_rejects_multi_log_dirs(self, tmp_path):
        write_carp_like(tmp_path, ranks=2)
        with pytest.raises(ValueError, match="exactly one"):
            sorted_sst_boundaries(tmp_path)
