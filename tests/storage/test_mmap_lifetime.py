"""mmap-backed LogReader lifetimes: maps and descriptors never leak.

The reader contract (docs/PERFORMANCE.md): the opening descriptor is
closed before ``__init__`` returns — even when ``__init__`` fails
mid-way — and the map is released by ``close()``/``__exit__``, which
the L1001/L1002 lint rules track statically and these tests exercise
dynamically, including through the ``Session.snapshot()`` /
``release()`` / close lifecycle.
"""

from __future__ import annotations

import gc
import warnings

import numpy as np
import pytest

from repro.api import Session
from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.exec.work import probe_entries
from repro.query.request import QueryRequest
from repro.storage.blocks import CHUNK_RECORDS, BlockCorruptionError
from repro.storage.log import LogReader, LogWriter, list_logs, log_name
from repro.storage.manifest import ManifestCorruptionError
from repro.storage.recovery import CommittedState
from repro.storage.snapshot import pin_snapshot
from repro.storage.sstable import FLAG_SORTED, head_span_len, keys_span_len

OPTIONS = CarpOptions(
    pivot_count=16,
    oob_capacity=32,
    renegotiations_per_epoch=2,
    memtable_records=64,
    round_records=32,
    value_size=8,
)

NRANKS = 2


def _ingest(out_dir, epochs: int = 2):
    with CarpRun(NRANKS, out_dir, OPTIONS) as run:
        for epoch in range(epochs):
            streams = [
                RecordBatch(
                    np.linspace(rank, 100.0 + rank, 200, dtype="<f4"),
                    np.arange(200, dtype="<u8")
                    + np.uint64(rank) * np.uint64(1 << 32),
                    OPTIONS.value_size,
                )
                for rank in range(NRANKS)
            ]
            run.ingest_epoch(epoch, streams)
    return list_logs(out_dir)


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("mmap_logs")
    _ingest(out)
    return out


def test_close_releases_map(log_dir):
    reader = LogReader(list_logs(log_dir)[0])
    entry = reader.entries[0]
    assert len(reader.read_sst(entry).batch) == entry.count
    assert reader._map is not None and not reader._map.closed
    reader.close()
    assert reader._map.closed
    # double close is safe
    reader.close()
    with pytest.raises(ValueError):
        reader.read_sst(entry)


def test_context_manager_releases_map(log_dir):
    with LogReader(list_logs(log_dir)[0]) as reader:
        reader.read_sst(reader.entries[0])
    assert reader._map is not None and reader._map.closed


def test_no_resource_warning_on_lifecycle(log_dir):
    """Neither the opening fd nor the map leaks a ResourceWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with LogReader(list_logs(log_dir)[0]) as reader:
            for entry in reader.entries:
                reader.read_sst(entry)
        del reader
        gc.collect()


def test_mid_init_failure_closes_descriptor(tmp_path):
    """A reader that fails during entry loading must close its fd.

    The map is created *after* the entries parse, so the failure path
    has only the descriptor to clean up; an unclosed one surfaces as a
    ResourceWarning at collection.
    """
    bad = tmp_path / "RDB-00000000.tbl"
    bad.write_bytes(b"no footer here")
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(ManifestCorruptionError):
            LogReader(bad)
        gc.collect()


def test_zero_length_pinned_log(tmp_path):
    """An empty pinned state over a zero-length file holds no map."""
    empty = tmp_path / "RDB-00000000.tbl"
    empty.touch()
    pin = CommittedState(footer_end=0, manifest_offset=0, entries=())
    with LogReader(empty, pin=pin) as reader:
        assert reader._map is None
        assert reader.entries == []
        with pytest.raises(ValueError, match="holds no data"):
            reader._span(0, 1)
    # close on a map-less reader is a no-op
    reader.close()


def test_pinned_open_ignores_bytes_past_the_pin(log_dir, tmp_path):
    """A pinned reader never consults bytes after its commit point.

    Garbage appended after the pin (a concurrent writer's in-flight
    tail, torn by a crash) breaks a plain footer-parsing open but must
    not affect a pinned one — no footer parse, no backward scan.
    """
    src = list_logs(log_dir)[0]
    torn = tmp_path / src.name
    torn.write_bytes(src.read_bytes())
    snap = pin_snapshot(log_dir)
    state = next(p.state for p in snap.logs if p.path == str(src))
    assert state is not None
    with torn.open("ab") as fh:
        fh.write(b"\xde\xad" * 512)
    with pytest.raises(ManifestCorruptionError):
        LogReader(torn)
    with LogReader(torn, pin=state) as reader:
        assert [e.offset for e in reader.entries] == [
            e.offset for e in state.entries
        ]
        batch = reader.read_sst(reader.entries[0]).batch
        assert len(batch) == reader.entries[0].count
        # the engine's probe loop over that reader scans exactly the
        # pinned entries
        result = probe_entries(reader, list(state.entries), 0.0, 1e9, False)
        assert result.scanned == sum(e.count for e in state.entries)


def test_session_release_and_close_release_maps(tmp_path):
    _ingest(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        session = Session(NRANKS, tmp_path, options=OPTIONS, record=True)
        # a session over an existing directory re-ingests; give it data
        for epoch in range(2):
            session.ingest_epoch(
                epoch,
                [
                    RecordBatch(
                        np.linspace(rank, 100.0 + rank, 200, dtype="<f4"),
                        np.arange(200, dtype="<u8")
                        + np.uint64(rank) * np.uint64(1 << 32),
                        OPTIONS.value_size,
                    )
                    for rank in range(NRANKS)
                ],
            )
        snap = session.snapshot()
        pinned_store = session.store(snap)
        resp = session.query(
            QueryRequest(lo=0.0, hi=50.0, epoch=0), snapshot=snap
        )
        assert resp.ok
        pinned_maps = [r._map for r in pinned_store._readers]
        assert all(m is not None and not m.closed for m in pinned_maps)
        session.release(snap)
        assert all(m.closed for m in pinned_maps)
        live_store = session.store()
        live_resp = session.query(QueryRequest(lo=0.0, hi=50.0, epoch=0))
        assert live_resp.ok and live_resp.digest() == resp.digest()
        live_maps = [r._map for r in live_store._readers]
        assert all(m is not None and not m.closed for m in live_maps)
        session.close()
        assert all(m.closed for m in live_maps)
        gc.collect()


def _sorted_sst_log(tmp_path):
    """One sorted SST of four chunks, row ``i`` holding key ``float(i)``."""
    count = 4 * CHUNK_RECORDS
    batch = RecordBatch.from_keys(np.arange(count, dtype=np.float32),
                                  value_size=16)
    path = tmp_path / log_name(0)
    with LogWriter(path) as writer:
        entry = writer.append_batch(batch, epoch=0)
        writer.flush_epoch(0)
    assert entry.flags & FLAG_SORTED
    return path, entry


def test_ranged_and_keys_reads_leave_no_export_on_the_map(tmp_path):
    """Ranged reads of a sorted SST that match, miss and fail, and a
    keys-only read, return arrays that own their memory: ``close()``
    succeeds (no ``BufferError``) while the results are still held."""
    path, entry = _sorted_sst_log(tmp_path)
    # damage value chunk 2 only: ranges inside chunk 0 never touch it
    data = bytearray(path.read_bytes())
    data[entry.offset + keys_span_len(entry.count)
         + 2 * CHUNK_RECORDS * 16 + 3] ^= 0xFF
    path.write_bytes(bytes(data))
    reader = LogReader(path)
    hit = reader.read_sst(entry, 10.0, 20.0).batch
    miss = reader.read_sst(entry, -5.0, -1.0).batch
    keys = reader.read_sst_keys(entry).keys
    with pytest.raises(BlockCorruptionError, match="chunk"):
        reader.read_sst(entry, 2.0 * CHUNK_RECORDS, 2.0 * CHUNK_RECORDS + 5)
    reader.close()
    assert reader._map is not None and reader._map.closed
    assert hit.keys.tolist() == [float(k) for k in range(10, 21)]
    assert hit.rids.tolist() == list(range(10, 21))
    assert len(miss) == 0
    assert len(keys) == entry.count


def test_failed_keys_read_leaves_no_export_on_the_map(tmp_path):
    path, entry = _sorted_sst_log(tmp_path)
    data = bytearray(path.read_bytes())
    # damage key chunk 0, which the ranged reads below search too
    data[entry.offset + head_span_len(entry.count) + 6] ^= 0xFF
    path.write_bytes(bytes(data))
    reader = LogReader(path)
    with pytest.raises(BlockCorruptionError, match="key chunk 0"):
        reader.read_sst_keys(entry)
    with pytest.raises(BlockCorruptionError, match="key chunk 0"):
        reader.read_sst_keys(entry, 0.0, 1.0)
    with pytest.raises(BlockCorruptionError, match="key chunk 0"):
        reader.read_sst(entry, 0.0, 1.0)
    reader.close()
    assert reader._map is not None and reader._map.closed
