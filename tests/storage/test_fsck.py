"""Tests for KoiDB integrity checking (fsck)."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.carp import CarpRun
from repro.core.config import TEST_OPTIONS, CarpOptions
from repro.core.records import RecordBatch
from repro.storage import log as log_module
from repro.storage import sstable
from repro.storage.fsck import fsck
from repro.storage.log import LogReader, LogWriter, list_logs, log_name

OPTS = CarpOptions(
    pivot_count=32, oob_capacity=32, renegotiations_per_epoch=2,
    memtable_records=128, round_records=128, value_size=8,
)


@pytest.fixture()
def clean_output(tmp_path):
    rng = np.random.default_rng(0)
    streams = [
        RecordBatch.from_keys(rng.random(400).astype(np.float32), rank=r,
                              value_size=8)
        for r in range(4)
    ]
    with CarpRun(4, tmp_path, OPTS) as run:
        run.ingest_epoch(0, streams)
    return tmp_path


class TestFsck:
    def test_clean_output_passes(self, clean_output):
        report = fsck(clean_output)
        assert report.ok, report.errors
        assert report.logs_checked == 4
        assert report.records_checked == 1600
        assert report.epochs == {0}

    def test_missing_dir(self, tmp_path):
        report = fsck(tmp_path / "nope")
        assert not report.ok

    def test_detects_body_corruption(self, clean_output):
        path = list_logs(clean_output)[1]
        data = bytearray(path.read_bytes())
        data[90] ^= 0xFF  # somewhere inside the first SST's blocks
        path.write_bytes(bytes(data))
        report = fsck(clean_output)
        assert not report.ok
        assert any("corrupt SST" in e for e in report.errors)

    def test_detects_torn_log(self, clean_output):
        path = list_logs(clean_output)[0]
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 32)  # writer crashed mid-append
        report = fsck(clean_output)
        assert not report.ok
        report2 = fsck(clean_output, recover=True)
        assert report2.ok

    def test_detects_duplicate_rids(self, tmp_path):
        b = RecordBatch.from_keys(np.array([1.0, 2.0], np.float32),
                                  value_size=8)
        for r in range(2):
            with LogWriter(tmp_path / log_name(r)) as w:
                w.append_batch(b, 0)  # same rids in both logs
                w.flush_epoch(0)
        report = fsck(tmp_path)
        assert not report.ok
        assert any("duplicate" in e for e in report.errors)

    def test_detects_sorted_flag_violation(self, tmp_path):
        """An SST claiming SORTED with unsorted keys is reported."""
        from repro.storage import sstable

        b = RecordBatch.from_keys(np.array([5.0, 1.0], np.float32),
                                  value_size=8)
        # build an SST that lies about being sorted
        original = sstable.build_sstable

        data, info = original(b, 0, sort=False)
        # patch the flags byte: set FLAG_SORTED and re-CRC the header
        import struct
        import zlib

        fields = list(struct.unpack(sstable._HEADER_FMT,
                                    data[: sstable.HEADER_SIZE]))
        fields[2] |= sstable.FLAG_SORTED
        hdr = struct.pack(sstable._HEADER_FMT, *fields)[:-4]
        crc = zlib.crc32(hdr) & 0xFFFFFFFF
        forged = hdr + crc.to_bytes(4, "little") + data[sstable.HEADER_SIZE:]

        from repro.storage.manifest import (
            ManifestEntry,
            encode_footer,
            encode_manifest_block,
        )

        path = tmp_path / log_name(0)
        entry = ManifestEntry(0, len(forged), 2, 1.0, 5.0, 0,
                              sstable.FLAG_SORTED, 0)
        block = encode_manifest_block([entry], 0, None)
        path.write_bytes(forged + block + encode_footer(len(forged)))
        report = fsck(tmp_path)
        assert not report.ok
        assert any("SORTED flag" in e for e in report.errors)


class TestParseCount:
    """fsck diagnoses each log once: every committed SST is fully
    parsed once per walk, and ``--repair`` walks twice."""

    @pytest.fixture()
    def store(self, tmp_path):
        rng = np.random.default_rng(5)
        with CarpRun(4, tmp_path, TEST_OPTIONS) as run:
            for epoch in range(2):
                run.ingest_epoch(epoch, [
                    RecordBatch.from_keys(
                        rng.random(600).astype(np.float32), rank=r,
                        start_seq=600 * epoch, value_size=8)
                    for r in range(4)
                ])
        nssts = 0
        for path in list_logs(tmp_path):
            with LogReader(path) as reader:
                nssts += len(reader.entries)
        assert nssts == 29
        return tmp_path, nssts

    @pytest.fixture()
    def parses(self, monkeypatch):
        calls = []
        real = sstable.parse_sstable

        def spy(data):
            calls.append(len(data))
            return real(data)

        monkeypatch.setattr(sstable, "parse_sstable", spy)
        monkeypatch.setattr(log_module, "parse_sstable", spy)
        return calls

    def test_fsck_parses_each_sst_once(self, store, parses):
        directory, nssts = store
        report = fsck(directory)
        assert report.ok, report.errors
        assert report.ssts_checked == nssts
        assert report.records_checked == 4 * 600 * 2
        assert len(parses) == nssts

    def test_repair_parses_each_sst_at_most_twice(self, store, parses):
        directory, nssts = store
        report = fsck(directory, repair=True)
        assert report.ok, report.errors
        assert not report.repaired
        assert len(parses) <= 2 * nssts


class TestFsckCli:
    def test_clean_exit_zero(self, clean_output, capsys):
        assert main(["fsck", "-i", str(clean_output)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_corrupt_exit_one(self, clean_output, capsys):
        path = list_logs(clean_output)[0]
        data = bytearray(path.read_bytes())
        data[90] ^= 0xFF
        path.write_bytes(bytes(data))
        assert main(["fsck", "-i", str(clean_output)]) == 1

    def test_recover_flag(self, clean_output):
        path = list_logs(clean_output)[0]
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 16)
        assert main(["fsck", "-i", str(clean_output)]) == 1
        assert main(["fsck", "-i", str(clean_output), "--recover"]) == 0
