"""Unit tests for per-rank append-only logs."""

import numpy as np
import pytest

from repro.core.records import RecordBatch
from repro.query.engine import PartitionedStore
from repro.storage.log import LogReader, LogWriter, list_logs, log_name, log_rank
from repro.storage.manifest import ManifestError
from repro.storage.recovery import find_committed_state


def batch(*keys):
    return RecordBatch.from_keys(np.array(keys, np.float32), value_size=8)


def committed_state(path):
    with open(path, "rb") as fh:
        return find_committed_state(fh, path.stat().st_size, path)


class TestNaming:
    def test_log_name(self):
        assert log_name(7) == "RDB-00000007.tbl"

    def test_log_rank_roundtrip(self):
        assert log_rank(log_name(123)) == 123

    def test_log_rank_rejects_other_files(self):
        with pytest.raises(ValueError):
            log_rank("notalog.txt")

    def test_list_logs_sorted_by_rank(self, tmp_path):
        for r in (3, 0, 11):
            with LogWriter(tmp_path / log_name(r)) as w:
                w.append_batch(batch(1.0), 0)
                w.flush_epoch(0)
        (tmp_path / "unrelated.dat").write_bytes(b"x")
        assert [log_rank(p) for p in list_logs(tmp_path)] == [0, 3, 11]


class TestWriteRead:
    def test_single_epoch_roundtrip(self, tmp_path):
        path = tmp_path / log_name(0)
        with LogWriter(path) as w:
            w.append_batch(batch(1.0, 2.0), epoch=0)
            w.append_batch(batch(3.0), epoch=0)
            w.flush_epoch(0)
        with LogReader(path) as r:
            assert len(r.entries) == 2
            assert r.read_sst(r.entries[0]).batch.keys.tolist() == [1.0, 2.0]
            assert r.read_sst(r.entries[1]).batch.keys.tolist() == [3.0]

    def test_multi_epoch_chain(self, tmp_path):
        path = tmp_path / log_name(0)
        with LogWriter(path) as w:
            w.append_batch(batch(1.0), 0)
            w.flush_epoch(0)
            w.append_batch(batch(2.0), 1)
            w.append_batch(batch(3.0), 1)
            w.flush_epoch(1)
        with LogReader(path) as r:
            assert len(r.entries) == 3
            assert [e.epoch for e in r.entries] == [0, 1, 1]
            assert len(r.entries_for(epoch=1)) == 2

    def test_overlapping_entries_range_filter(self, tmp_path):
        path = tmp_path / log_name(0)
        with LogWriter(path) as w:
            w.append_batch(batch(1.0, 2.0), 0)
            w.append_batch(batch(10.0, 11.0), 0)
            w.flush_epoch(0)
        with PartitionedStore(tmp_path) as store:
            hits = store.overlapping_entries(0, 9.0, 12.0)
            assert len(hits) == 1
            assert hits[0][1].kmin == 10.0

    def test_empty_epoch_manifest(self, tmp_path):
        path = tmp_path / log_name(0)
        with LogWriter(path) as w:
            w.flush_epoch(0)
            w.append_batch(batch(5.0), 1)
            w.flush_epoch(1)
        with LogReader(path) as r:
            assert len(r.entries_for(epoch=0)) == 0
            assert len(r.entries_for(epoch=1)) == 1

    def test_read_keys_only_cheaper(self, tmp_path):
        path = tmp_path / log_name(0)
        with LogWriter(path) as w:
            w.append_batch(batch(*np.arange(100, dtype=float)), 0)
            w.flush_epoch(0)
        with LogReader(path) as r:
            entry = r.entries[0]
            keys = r.read_sst_keys(entry).keys
            assert len(keys) == 100
            assert r.bytes_read < entry.length

    def test_io_accounting(self, tmp_path):
        path = tmp_path / log_name(0)
        with LogWriter(path) as w:
            w.append_batch(batch(1.0), 0)
            w.append_batch(batch(2.0), 0)
            w.flush_epoch(0)
        with LogReader(path) as r:
            r.read_sst(r.entries[0])
            r.read_sst(r.entries[1])
            assert r.read_requests == 2
            assert r.bytes_read == sum(e.length for e in r.entries)

    def test_pending_entries_visible(self, tmp_path):
        with LogWriter(tmp_path / log_name(0)) as w:
            w.append_batch(batch(1.0), 0)
            assert w.pending_entries == 1
            w.flush_epoch(0)
            assert w.pending_entries == 0

    def test_stray_flag_in_manifest(self, tmp_path):
        from repro.storage.sstable import FLAG_STRAY

        path = tmp_path / log_name(0)
        with LogWriter(path) as w:
            w.append_batch(batch(1.0), 0, stray=True)
            w.flush_epoch(0)
        with LogReader(path) as r:
            assert r.entries[0].flags & FLAG_STRAY


class TestCorruption:
    def test_truncated_file(self, tmp_path):
        path = tmp_path / log_name(0)
        with LogWriter(path) as w:
            w.append_batch(batch(1.0), 0)
            w.flush_epoch(0)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ManifestError):
            LogReader(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / log_name(0)
        path.write_bytes(b"")
        with pytest.raises(ManifestError, match="footer"):
            LogReader(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / log_name(0)
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ManifestError):
            LogReader(path)

    def test_corrupt_sst_body_detected_on_read(self, tmp_path):
        from repro.storage.blocks import BlockCorruptionError

        path = tmp_path / log_name(0)
        with LogWriter(path) as w:
            entry = w.append_batch(batch(1.0, 2.0), 0)
            w.flush_epoch(0)
        data = bytearray(path.read_bytes())
        data[entry.offset + 70] ^= 0xFF  # inside key/value blocks
        path.write_bytes(bytes(data))
        with LogReader(path) as r:
            with pytest.raises(BlockCorruptionError):
                r.read_sst(r.entries[0])

    def test_unflushed_ssts_unreachable(self, tmp_path):
        """SSTs appended after the last flush are invisible (and the log
        still parses from the previous footer if one exists... it does
        not: the footer is no longer at EOF, so the log is detectably
        incomplete)."""
        path = tmp_path / log_name(0)
        w = LogWriter(path)
        w.append_batch(batch(1.0), 0)
        w.flush_epoch(0)
        w.append_batch(batch(2.0), 1)  # never flushed
        w.close()
        with pytest.raises(ManifestError):
            LogReader(path)


class TestRecovery:
    """Epoch-aligned crash recovery (paper §V-A semantics)."""

    def _torn_log(self, tmp_path):
        path = tmp_path / log_name(0)
        w = LogWriter(path)
        w.append_batch(batch(1.0, 2.0), 0)
        w.flush_epoch(0)
        w.append_batch(batch(3.0), 1)  # crash before flush_epoch(1)
        w.close()
        return path

    def test_recover_reopens_at_last_epoch(self, tmp_path):
        path = self._torn_log(tmp_path)
        state = committed_state(path)
        with LogReader(path, pin=state) as r:
            assert [e.epoch for e in r.entries] == [0]
            assert r.read_sst(r.entries[0]).batch.keys.tolist() == [1.0, 2.0]
        assert path.stat().st_size - state.footer_end > 0

    def test_without_recover_fails(self, tmp_path):
        path = self._torn_log(tmp_path)
        with pytest.raises(ManifestError):
            LogReader(path)

    def test_recover_noop_on_clean_log(self, tmp_path):
        path = tmp_path / log_name(0)
        with LogWriter(path) as w:
            w.append_batch(batch(1.0), 0)
            w.flush_epoch(0)
        state = committed_state(path)
        with LogReader(path, pin=state) as r:
            assert len(r.entries) == 1
        assert path.stat().st_size - state.footer_end == 0

    def test_recover_multi_epoch_keeps_complete_ones(self, tmp_path):
        path = tmp_path / log_name(0)
        w = LogWriter(path)
        w.append_batch(batch(1.0), 0)
        w.flush_epoch(0)
        w.append_batch(batch(2.0), 1)
        w.flush_epoch(1)
        w.append_batch(batch(3.0), 2)  # torn epoch 2
        w.close()
        with LogReader(path, pin=committed_state(path)) as r:
            assert sorted({e.epoch for e in r.entries}) == [0, 1]

    def test_unrecoverable_garbage(self, tmp_path):
        path = tmp_path / log_name(0)
        path.write_bytes(b"\x01" * 256)
        assert committed_state(path) is None
        with pytest.raises(ManifestError, match="bad footer magic"):
            LogReader(path)
