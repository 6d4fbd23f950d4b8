"""Crash → recover → append: the writer-side recovery contract.

The corpus tests (``test_corpus.py``) cover classification of
hand-broken bytes; these tests drive the *live* path: a fault plan
tears a real write mid-flight, and ``LogWriter(recover=True)`` /
``KoiDB.open`` must truncate back to the commit point and keep
appending on top of the surviving prefix.
"""

import numpy as np
import pytest

from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.faults.plan import (
    SITE_MANIFEST_WRITE,
    SITE_SST_WRITE,
    FaultInjector,
    FaultSpec,
    InjectedCrashError,
)
from repro.storage.fsck import fsck
from repro.storage.koidb import KoiDB
from repro.storage.log import QUARANTINE_DIR, LogReader, LogWriter, log_name
from repro.storage.manifest import ManifestCorruptionError
from repro.storage.recovery import walk_manifest_chain

OPTS = CarpOptions(memtable_records=64, value_size=8)


def _batch(epoch: int, n: int = 32, rank: int = 0) -> RecordBatch:
    rng = np.random.default_rng(epoch + 1)
    keys = rng.uniform(0.0, 1.0, n).astype(np.float32)
    return RecordBatch.from_keys(
        keys, rank=rank, start_seq=epoch * 1000, value_size=8
    )


def _write_epoch(writer: LogWriter, epoch: int) -> None:
    writer.append_batch(_batch(epoch), epoch)
    writer.flush_epoch(epoch)


# ------------------------------------------------------- injected tears


def test_sst_crash_writes_exact_prefix(tmp_path):
    path = tmp_path / log_name(0)
    injector = FaultInjector([FaultSpec(SITE_SST_WRITE, 0, 1, arg=0.5)])
    with LogWriter(path, injector=injector) as writer:
        _write_epoch(writer, 0)
        committed = writer.offset
        with pytest.raises(InjectedCrashError) as exc_info:
            writer.append_batch(_batch(1), 1)
        assert exc_info.value.site == SITE_SST_WRITE
        # exactly the declared fraction of the payload hit the file
        assert writer.offset > committed
    size = path.stat().st_size
    assert committed < size  # a genuine torn tail is on disk


def test_crashed_writer_refuses_further_appends(tmp_path):
    path = tmp_path / log_name(0)
    injector = FaultInjector([FaultSpec(SITE_SST_WRITE, 0, 0, arg=0.25)])
    writer = LogWriter(path, injector=injector)
    with pytest.raises(InjectedCrashError):
        writer.append_batch(_batch(0), 0)
    with pytest.raises(RuntimeError, match="already crashed"):
        writer.append_batch(_batch(0), 0)
    with pytest.raises(RuntimeError, match="already crashed"):
        writer.flush_epoch(0)
    writer.close()  # close stays legal


@pytest.mark.parametrize("cut", [0.0, 0.3, 0.7, 1.0])
def test_recover_after_torn_sst(tmp_path, cut):
    path = tmp_path / log_name(0)
    injector = FaultInjector([FaultSpec(SITE_SST_WRITE, 0, 1, arg=cut)])
    with LogWriter(path, injector=injector) as writer:
        _write_epoch(writer, 0)
        committed = writer.offset
        with pytest.raises(InjectedCrashError):
            writer.append_batch(_batch(1), 1)

    with LogWriter(path, recover=True) as writer:
        assert writer.recovery is not None
        assert writer.recovery.changed == (cut > 0.0)
        assert writer.offset == committed  # truncated to the commit point
        _write_epoch(writer, 1)

    with LogReader(path) as reader:
        assert sorted({e.epoch for e in reader.entries}) == [0, 1]


@pytest.mark.parametrize("cut", [0.0, 0.4, 0.9])
def test_recover_after_torn_manifest(tmp_path, cut):
    # the manifest block and footer are one payload: any cut leaves a
    # complete SST with its committing manifest torn — the whole epoch
    # must disappear
    path = tmp_path / log_name(0)
    injector = FaultInjector([FaultSpec(SITE_MANIFEST_WRITE, 0, 1, arg=cut)])
    with LogWriter(path, injector=injector) as writer:
        _write_epoch(writer, 0)
        committed = writer.offset
        writer.append_batch(_batch(1), 1)
        with pytest.raises(InjectedCrashError):
            writer.flush_epoch(1)

    with LogWriter(path, recover=True) as writer:
        assert writer.offset == committed
        _write_epoch(writer, 2)

    with LogReader(path) as reader:
        epochs = sorted({e.epoch for e in reader.entries})
    assert epochs == [0, 2]  # epoch 1 tore; epochs 0 and 2 survive


def test_recover_quarantines_rather_than_deletes(tmp_path):
    path = tmp_path / log_name(0)
    injector = FaultInjector([FaultSpec(SITE_SST_WRITE, 0, 1, arg=0.5)])
    with LogWriter(path, injector=injector) as writer:
        _write_epoch(writer, 0)
        with pytest.raises(InjectedCrashError):
            writer.append_batch(_batch(1), 1)
    before = path.read_bytes()

    with LogWriter(path, recover=True) as writer:
        action = writer.recovery
    assert action is not None and action.quarantined_bytes > 0
    quarantined = (tmp_path / QUARANTINE_DIR).glob("*")
    blobs = {p.name: p.read_bytes() for p in quarantined}
    assert len(blobs) == 1
    tail = next(iter(blobs.values()))
    assert path.read_bytes() + tail == before  # every byte accounted for


def test_recover_on_fresh_path_starts_empty(tmp_path):
    path = tmp_path / log_name(0)
    with LogWriter(path, recover=True) as writer:
        assert writer.recovery is None
        assert writer.offset == 0
        _write_epoch(writer, 0)
    with LogReader(path) as reader:
        assert sorted({e.epoch for e in reader.entries}) == [0]


# ------------------------------------------------------------ KoiDB.open


def _koidb_epoch(db: KoiDB, epoch: int) -> None:
    db.begin_epoch(epoch)
    db.ingest(_batch(epoch, n=96))
    db.finish_epoch()


def test_koidb_open_recovers_and_appends(tmp_path):
    faults = [FaultSpec(SITE_MANIFEST_WRITE, 0, 1, arg=0.6)]
    db = KoiDB(0, tmp_path, OPTS, faults=faults)
    _koidb_epoch(db, 0)
    db.begin_epoch(1)
    db.ingest(_batch(1, n=96))
    with pytest.raises(InjectedCrashError):
        db.finish_epoch()
    db.close()
    assert not fsck(tmp_path).ok  # torn tail on disk

    db = KoiDB.open(0, tmp_path, OPTS)
    assert db.recovery is not None and db.recovery.changed
    _koidb_epoch(db, 1)
    db.close()

    report = fsck(tmp_path)
    assert report.ok, report.errors
    assert sorted(report.epochs) == [0, 1]


def test_koidb_open_is_idempotent_on_clean_logs(tmp_path):
    db = KoiDB(0, tmp_path, OPTS)
    _koidb_epoch(db, 0)
    db.close()
    before = (tmp_path / log_name(0)).read_bytes()

    db = KoiDB.open(0, tmp_path, OPTS)
    assert db.recovery is not None and not db.recovery.changed
    db.close()
    assert (tmp_path / log_name(0)).read_bytes() == before


# ------------------------------------------------ footer scan coverage


def test_long_uncommitted_tail_keeps_commit_point(tmp_path, monkeypatch):
    """A crash can leave more uncommitted bytes than one scan window
    (a large epoch's worth of flushed SSTs): the footer scan must walk
    the whole file instead of classifying the log as footer-less and
    quarantining committed data."""
    from repro.storage import recovery

    monkeypatch.setattr(recovery, "SCAN_WINDOW", 4096)
    path = tmp_path / log_name(0)
    with LogWriter(path) as writer:
        _write_epoch(writer, 0)
        committed = writer.offset
    with open(path, "ab") as fh:
        fh.write(b"\xaa" * (5 * 4096))  # tail spanning many scan windows
    diag = recovery.classify_log(path)
    assert diag.kind == recovery.KIND_TORN_TAIL
    assert diag.footer_end == committed

    with LogWriter(path, recover=True) as writer:
        assert writer.offset == committed
        _write_epoch(writer, 1)
    with LogReader(path) as reader:
        assert sorted({e.epoch for e in reader.entries}) == [0, 1]


@pytest.mark.parametrize("pad", range(0, 64, 7))
def test_footer_found_at_any_window_alignment(tmp_path, monkeypatch, pad):
    # sweep the tail length so the committed footer lands at every
    # alignment relative to the scan-window boundaries, including
    # straddling one
    from repro.storage import recovery

    monkeypatch.setattr(recovery, "SCAN_WINDOW", 64)
    path = tmp_path / log_name(0)
    with LogWriter(path) as writer:
        _write_epoch(writer, 0)
        committed = writer.offset
    with open(path, "ab") as fh:
        fh.write(b"\xaa" * (200 + pad))
    diag = recovery.classify_log(path)
    assert diag.kind == recovery.KIND_TORN_TAIL
    assert diag.footer_end == committed


def test_tail_with_footer_and_trailing_garbage_diagnosed(tmp_path):
    """A tail holding a parseable manifest block, its decodable footer,
    and further garbage must not be reported as 'footer missing/short
    (N of 16 bytes)' with N larger than a footer."""
    from repro.storage.manifest import encode_footer, encode_manifest_block
    from repro.storage.recovery import KIND_TORN_MANIFEST, classify_log

    path = tmp_path / log_name(0)
    with LogWriter(path) as writer:
        _write_epoch(writer, 0)
        committed = writer.offset
    # a block whose chain cannot validate (prev offset outside the
    # file), the footer pointing at it, then trailing garbage
    block = encode_manifest_block([], epoch=1, prev_offset=1 << 40)
    with open(path, "ab") as fh:
        fh.write(block + encode_footer(committed) + b"\xbb" * 7)

    diag = classify_log(path)
    assert diag.kind == KIND_TORN_MANIFEST
    assert diag.footer_end == committed
    assert "7 trailing byte(s)" in diag.detail
    assert "missing/short" not in diag.detail


# --------------------------------------------------------- typed errors


def test_manifest_corruption_error_carries_location(tmp_path):
    path = tmp_path / log_name(0)
    with LogWriter(path) as writer:
        _write_epoch(writer, 0)
        size = writer.offset
    # clip the newest manifest block's header mid-way
    data = path.read_bytes()
    with open(path, "rb") as fh:
        fh.seek(size - 16)
        from repro.storage.manifest import decode_footer

        manifest_offset = decode_footer(fh.read(16))
    torn = data[: manifest_offset + 4]
    path.write_bytes(torn)

    with open(path, "rb") as fh:
        with pytest.raises(ManifestCorruptionError) as exc_info:
            walk_manifest_chain(fh, len(torn), manifest_offset, path)
    err = exc_info.value
    assert err.path == str(path)
    assert err.offset == manifest_offset
    assert err.entry_index == 0  # newest block in the chain walk
    assert "truncated" in err.detail
    assert str(path) in str(err) and f"@{manifest_offset}" in str(err)


def test_flipped_entry_count_is_a_typed_error_not_a_huge_read(tmp_path):
    from repro.storage.manifest import BLOCK_HDR_SIZE, decode_footer

    path = tmp_path / log_name(0)
    with LogWriter(path) as writer:
        _write_epoch(writer, 0)
    data = bytearray(path.read_bytes())
    manifest_offset = decode_footer(bytes(data[-16:]))
    # the count's top byte: the block now declares ~4 billion entries
    data[manifest_offset + BLOCK_HDR_SIZE - 1] ^= 0xFF
    path.write_bytes(bytes(data))

    with open(path, "rb") as fh:
        with pytest.raises(ManifestCorruptionError) as exc_info:
            walk_manifest_chain(fh, len(data), manifest_offset, path)
    assert exc_info.value.offset == manifest_offset


def test_reader_rejects_tiny_file_with_typed_error(tmp_path):
    path = tmp_path / log_name(0)
    path.write_bytes(b"KF")
    with pytest.raises(ManifestCorruptionError) as exc_info:
        LogReader(path)
    assert exc_info.value.offset == 0
