"""Unit tests for the KoiDB storage backend."""

import numpy as np
import pytest

from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.storage.koidb import KoiDB
from repro.storage.log import LogReader, log_name
from repro.storage.sstable import FLAG_STRAY

OPTS = CarpOptions(memtable_records=8, value_size=8, subpartitions=1)


def batch(*keys):
    return RecordBatch.from_keys(np.array(keys, np.float32), value_size=8)


def read_entries(tmp_path, rank=0):
    with LogReader(tmp_path / log_name(rank)) as r:
        return list(r.entries)


def read_all(tmp_path, rank=0):
    out = []
    with LogReader(tmp_path / log_name(rank)) as r:
        for e in r.entries:
            out.append((e, r.read_sst(e).batch))
    return out


class TestLifecycle:
    def test_epoch_required(self, tmp_path):
        db = KoiDB(0, tmp_path, OPTS)
        with pytest.raises(RuntimeError, match="outside an epoch"):
            db.ingest(batch(1.0))
        db.close()

    def test_double_begin_rejected(self, tmp_path):
        db = KoiDB(0, tmp_path, OPTS)
        db.begin_epoch(0)
        with pytest.raises(RuntimeError):
            db.begin_epoch(1)
        db.close()

    def test_finish_without_begin_rejected(self, tmp_path):
        db = KoiDB(0, tmp_path, OPTS)
        with pytest.raises(RuntimeError):
            db.finish_epoch()
        db.close()

    def test_basic_roundtrip(self, tmp_path):
        db = KoiDB(0, tmp_path, OPTS)
        db.begin_epoch(0)
        db.ingest(batch(2.0, 1.0, 3.0))
        db.finish_epoch()
        db.close()
        entries = read_entries(tmp_path)
        assert sum(e.count for e in entries) == 3

    def test_memtable_flush_threshold(self, tmp_path):
        db = KoiDB(0, tmp_path, OPTS)
        db.begin_epoch(0)
        db.ingest(batch(*range(20)))  # capacity 8 -> at least 2 flushes
        db.finish_epoch()
        db.close()
        assert db.stats.memtable_flushes >= 2
        assert sum(e.count for e in read_entries(tmp_path)) == 20

    def test_sorted_ssts(self, tmp_path):
        db = KoiDB(0, tmp_path, OPTS)
        db.begin_epoch(0)
        db.ingest(batch(5.0, 1.0, 3.0))
        db.finish_epoch()
        db.close()
        for _e, b in read_all(tmp_path):
            assert np.all(np.diff(b.keys) >= 0)

    def test_unsorted_option(self, tmp_path):
        db = KoiDB(0, tmp_path, OPTS.with_(sort_ssts=False))
        db.begin_epoch(0)
        db.ingest(batch(5.0, 1.0, 3.0))
        db.finish_epoch()
        db.close()
        (_, b), = read_all(tmp_path)
        assert b.keys.tolist() == [5.0, 1.0, 3.0]


class TestStraySeparation:
    def test_strays_detected(self, tmp_path):
        db = KoiDB(0, tmp_path, OPTS)
        db.begin_epoch(0)
        db.set_owned_range(0.0, 1.0, inclusive_hi=False)
        db.ingest(batch(0.5, 2.0, 0.7))
        db.finish_epoch()
        db.close()
        assert db.stats.stray_records == 1

    def test_strays_in_separate_ssts(self, tmp_path):
        db = KoiDB(0, tmp_path, OPTS)
        db.begin_epoch(0)
        db.set_owned_range(0.0, 1.0, inclusive_hi=False)
        db.ingest(batch(0.5, 2.0, 0.7))
        db.finish_epoch()
        db.close()
        entries = read_entries(tmp_path)
        stray = [e for e in entries if e.flags & FLAG_STRAY]
        main = [e for e in entries if not (e.flags & FLAG_STRAY)]
        assert sum(e.count for e in stray) == 1
        assert sum(e.count for e in main) == 2
        # main SSTs keep tight ranges
        assert all(e.kmax < 1.0 for e in main)

    def test_separation_disabled_pollutes_main(self, tmp_path):
        db = KoiDB(0, tmp_path, OPTS.with_(separate_strays=False))
        db.begin_epoch(0)
        db.set_owned_range(0.0, 1.0, inclusive_hi=False)
        db.ingest(batch(0.5, 20.0, 0.7))
        db.finish_epoch()
        db.close()
        entries = read_entries(tmp_path)
        assert all(not (e.flags & FLAG_STRAY) for e in entries)
        assert max(e.kmax for e in entries) == 20.0
        # strays still counted for stats even when not separated
        assert db.stats.stray_records == 1

    def test_inclusive_hi_boundary(self, tmp_path):
        db = KoiDB(0, tmp_path, OPTS)
        db.begin_epoch(0)
        db.set_owned_range(0.0, 1.0, inclusive_hi=True)
        db.ingest(batch(1.0))
        db.finish_epoch()
        db.close()
        assert db.stats.stray_records == 0

    def test_exclusive_hi_boundary(self, tmp_path):
        db = KoiDB(0, tmp_path, OPTS)
        db.begin_epoch(0)
        db.set_owned_range(0.0, 1.0, inclusive_hi=False)
        db.ingest(batch(1.0))
        db.finish_epoch()
        db.close()
        assert db.stats.stray_records == 1

    def test_no_owned_range_means_no_strays(self, tmp_path):
        db = KoiDB(0, tmp_path, OPTS)
        db.begin_epoch(0)
        db.ingest(batch(-100.0, 100.0))
        db.finish_epoch()
        db.close()
        assert db.stats.stray_records == 0


class TestSubpartitioning:
    def test_split_into_key_disjoint_ssts(self, tmp_path):
        opts = OPTS.with_(subpartitions=4, memtable_records=64)
        db = KoiDB(0, tmp_path, opts)
        db.begin_epoch(0)
        rng = np.random.default_rng(0)
        db.ingest(RecordBatch.from_keys(
            rng.random(64).astype(np.float32), value_size=8))
        db.finish_epoch()
        db.close()
        entries = sorted(read_entries(tmp_path), key=lambda e: e.kmin)
        assert len(entries) == 4
        for a, b in zip(entries, entries[1:]):
            assert a.kmax <= b.kmin
        assert {e.sub_id for e in entries} == {0, 1, 2, 3}

    def test_small_flush_fewer_subparts(self, tmp_path):
        opts = OPTS.with_(subpartitions=4)
        db = KoiDB(0, tmp_path, opts)
        db.begin_epoch(0)
        db.ingest(batch(1.0, 2.0))  # fewer records than subpartitions
        db.finish_epoch()
        db.close()
        entries = read_entries(tmp_path)
        assert sum(e.count for e in entries) == 2
        assert len(entries) <= 2

    def test_smaller_ssts_than_unsplit(self, tmp_path):
        rng = np.random.default_rng(1)
        keys = rng.random(128).astype(np.float32)
        sizes = {}
        for sub in (1, 4):
            d = tmp_path / f"sub{sub}"
            db = KoiDB(0, d, OPTS.with_(subpartitions=sub, memtable_records=128))
            db.begin_epoch(0)
            db.ingest(RecordBatch.from_keys(keys, value_size=8))
            db.finish_epoch()
            db.close()
            entries = read_entries(d)
            sizes[sub] = max(e.length for e in entries)
        assert sizes[4] < sizes[1]


class TestStats:
    def test_bytes_written_matches_manifest(self, tmp_path):
        db = KoiDB(0, tmp_path, OPTS)
        db.begin_epoch(0)
        db.ingest(batch(*range(30)))
        db.finish_epoch()
        db.close()
        assert db.stats.bytes_written == sum(e.length for e in read_entries(tmp_path))

    def test_records_in(self, tmp_path):
        db = KoiDB(0, tmp_path, OPTS)
        db.begin_epoch(0)
        db.ingest(batch(1.0))
        db.ingest(batch(2.0, 3.0))
        db.finish_epoch()
        db.close()
        assert db.stats.records_in == 3
