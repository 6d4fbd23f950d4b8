"""Keys-first ranged reads over SST format v2: integrity follows the slice.

Two contracts.  *Integrity*: a ranged ``LogReader.read_sst(entry, lo,
hi)`` verifies everything it returns — damage to the header, the key
block, the chunk CRC table, the table's own CRC or a *matched* value
chunk raises ``BlockCorruptionError`` — while damage to an *unmatched*
chunk is invisible to it and is caught by every full read (plain
``read_sst``, ``scan``, ``carp-fsck``, deep recovery classification).
*Equivalence*: on both kernel backends, a ranged read returns exactly
what a full read followed by ``range_mask`` returns — same records,
same order — whatever the SST's size, ordering or flags.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main
from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch, range_mask
from repro.kernels import KERNEL_NAMES, use_kernels
from repro.query.engine import PartitionedStore
from repro.storage.blocks import (
    CHUNK_RECORDS,
    CRC_BYTES,
    BlockCorruptionError,
    chunk_count,
)
from repro.storage.fsck import fsck
from repro.storage.log import LogReader, LogWriter, log_name
from repro.storage.recovery import (
    KIND_CORRUPT_SST,
    CommittedState,
    classify_log,
)
from repro.storage.sstable import (
    FLAG_SORTED,
    FLAG_STRAY,
    HEADER_SIZE,
    SST_FORMAT_VERSION,
    build_sstable,
    head_span_len,
    keys_span_len,
    parse_header,
)

VALUE_SIZE = 24
#: four chunks: 256 + 256 + 256 + 232 records
COUNT = 3 * CHUNK_RECORDS + 232
CHUNK_BYTES = CHUNK_RECORDS * VALUE_SIZE
#: row i holds key float(i), so [300, 400] matches rows of chunk 1 only
LO, HI = 300.0, 400.0
MATCHED_CHUNK, UNMATCHED_CHUNK = 1, 3

KEYS_START = HEADER_SIZE
TABLE_START = keys_span_len(COUNT)
VALUES_START = head_span_len(COUNT)


def _write_log(directory, batch, **sst_kwargs):
    path = directory / log_name(0)
    with LogWriter(path) as writer:
        entry = writer.append_batch(batch, 0, **sst_kwargs)
        writer.flush_epoch(0)
    return path, entry


@pytest.fixture
def log(tmp_path):
    batch = RecordBatch.from_keys(
        np.arange(COUNT, dtype=np.float32), value_size=VALUE_SIZE
    )
    path, entry = _write_log(tmp_path, batch)
    assert entry.offset == 0 and chunk_count(entry.count) == 4
    return path, entry, batch


def _flip(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x40
    path.write_bytes(bytes(data))


class TestFormat:
    def test_v1_is_rejected(self):
        data = bytearray(build_sstable(RecordBatch.from_keys(
            np.array([1.0], np.float32), value_size=8), 0)[0])
        assert int.from_bytes(data[4:6], "little") == SST_FORMAT_VERSION == 2
        data[4:6] = (1).to_bytes(2, "little")
        with pytest.raises(BlockCorruptionError, match="format version 1"):
            parse_header(bytes(data))

    def test_foreign_chunk_size_is_rejected(self):
        import struct
        import zlib

        from repro.storage import sstable

        data = build_sstable(RecordBatch.from_keys(
            np.array([1.0], np.float32), value_size=8), 0)[0]
        fields = list(struct.unpack(sstable._HEADER_FMT, data[:HEADER_SIZE]))
        assert fields[-2] == CHUNK_RECORDS
        fields[-2] = 128
        hdr = struct.pack(sstable._HEADER_FMT, *fields)[:-CRC_BYTES]
        forged = hdr + (zlib.crc32(hdr) & 0xFFFFFFFF).to_bytes(4, "little")
        with pytest.raises(BlockCorruptionError, match="chunk size 128"):
            parse_header(forged + data[HEADER_SIZE:])

    def test_table_costs_four_bytes_a_chunk(self, log):
        _path, entry, _batch = log
        table = (chunk_count(COUNT) + 1) * CRC_BYTES
        assert VALUES_START - TABLE_START == table
        assert entry.length == VALUES_START + COUNT * VALUE_SIZE


class TestIntegrityMatrix:
    @pytest.mark.parametrize("offset", [
        pytest.param(20, id="header"),
        pytest.param(KEYS_START + 4 * 700 + 1, id="key-block"),
        pytest.param(TABLE_START + CRC_BYTES * UNMATCHED_CHUNK,
                     id="crc-table-entry"),
        pytest.param(TABLE_START + CRC_BYTES * chunk_count(COUNT) + 2,
                     id="crc-table-crc"),
        pytest.param(VALUES_START + MATCHED_CHUNK * CHUNK_BYTES + 17,
                     id="matched-chunk"),
    ])
    def test_damage_the_ranged_read_depends_on_raises(self, log, offset):
        path, entry, _batch = log
        _flip(path, offset)
        with LogReader(path) as reader:
            with pytest.raises(BlockCorruptionError):
                reader.read_sst(entry, LO, HI)
            with pytest.raises(BlockCorruptionError):
                reader.read_sst(entry)

    def test_truncated_value_block_raises(self, log):
        path, entry, _batch = log
        with LogReader(path) as reader:
            entries = tuple(reader.entries)
        size = path.stat().st_size
        cut = VALUES_START + MATCHED_CHUNK * CHUNK_BYTES + 100
        path.write_bytes(path.read_bytes()[:cut])
        # a pinned reader trusts its commit point and never re-reads the
        # (now missing) footer
        pin = CommittedState(size, 0, entries)
        with LogReader(path, pin=pin) as reader:
            with pytest.raises(BlockCorruptionError):
                reader.read_sst(entry, LO, HI)
            with pytest.raises(BlockCorruptionError):
                reader.read_sst(entry)
            # rows whose chunk survived whole still verify and decode
            assert len(reader.read_sst(entry, 10.0, 20.0).batch) == 11

    def test_unmatched_chunk_damage_is_invisible_to_the_ranged_read(self, log):
        path, entry, batch = log
        _flip(path, VALUES_START + UNMATCHED_CHUNK * CHUNK_BYTES + 5)
        want = batch.select(range_mask(batch.keys, LO, HI))
        with LogReader(path) as reader:
            read = reader.read_sst(entry, LO, HI)
            assert np.array_equal(read.batch.keys, want.keys)
            assert np.array_equal(read.batch.rids, want.rids)
            # head + exactly the one covering chunk
            assert read.bytes_read == VALUES_START + CHUNK_BYTES
            assert read.requests == 2
            with pytest.raises(BlockCorruptionError, match="chunk 3"):
                reader.read_sst(entry)

    def test_unmatched_chunk_damage_is_caught_by_every_full_read(self, log):
        path, _entry, _batch = log
        _flip(path, VALUES_START + UNMATCHED_CHUNK * CHUNK_BYTES + 5)
        with PartitionedStore(path.parent) as store:
            assert len(store.query(0, LO, HI)) == 101
            with pytest.raises(BlockCorruptionError):
                store.scan(0)
        report = fsck(path.parent)
        assert not report.ok
        assert any("corrupt SST" in e for e in report.errors)
        assert main(["fsck", "-i", str(path.parent)]) == 1
        assert classify_log(path, deep=True).kind == KIND_CORRUPT_SST


# ---------------------------------------------------------- equivalence

#: a small pool so duplicates, both zeros and adjacent floats collide
_POOL = [-0.0, 0.0, 1.0, float(np.nextafter(np.float32(1.0), np.float32(2.0))),
         -3.5, 7.25, 1e-30, 1e30, 42.0]
_KEY = st.one_of(
    st.sampled_from(_POOL),
    st.floats(-1e6, 1e6, allow_nan=False, width=32),
)
_COUNT = st.sampled_from(
    [1, 2, CHUNK_RECORDS - 1, CHUNK_RECORDS, CHUNK_RECORDS + 1,
     2 * CHUNK_RECORDS + 37, 3 * CHUNK_RECORDS]
)


def _neighbours(key: float) -> list[float]:
    k = np.float32(key)
    return [
        float(k),
        float(np.nextafter(k, np.float32(np.inf))),
        float(np.nextafter(k, np.float32(-np.inf))),
        # the float64 neighbours too: bounds are compared in float64
        float(np.nextafter(np.float64(k), np.inf)),
        float(np.nextafter(np.float64(k), -np.inf)),
    ]


def _anchors(keys: list[float]) -> list[float]:
    """Bounds worth trying: exact keys, their neighbours, both zeros."""
    return [b for k in keys for b in _neighbours(k)] + [-0.0, 0.0]


@st.composite
def _sst_and_bounds(draw):
    count = draw(_COUNT)
    seed = draw(st.integers(0, 2**16))
    base = draw(st.lists(_KEY, min_size=1, max_size=12))
    rng = np.random.default_rng(seed)
    keys = np.asarray(base, dtype=np.float32)[rng.integers(0, len(base), count)]
    if draw(st.booleans()):
        # mostly distinct keys instead of a handful of heavy duplicates
        keys = (keys + rng.uniform(-50, 50, count)).astype(np.float32)
    anchors = _anchors(draw(st.lists(st.sampled_from(keys.tolist()),
                                     min_size=2, max_size=2)))
    lo = draw(st.sampled_from(anchors) | _KEY)
    hi = draw(st.sampled_from(anchors) | _KEY)
    if hi < lo:
        lo, hi = hi, lo
    return keys, float(lo), float(hi), draw(st.booleans()), draw(st.booleans())


@pytest.mark.parametrize("kernels", KERNEL_NAMES)
@given(case=_sst_and_bounds())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_ranged_read_equals_full_read_plus_mask(tmp_path, kernels, case):
    keys, lo, hi, sort, stray = case
    batch = RecordBatch.from_keys(keys, rank=3, value_size=16)
    with use_kernels(kernels):
        path, entry = _write_log(
            tmp_path, batch, sort=sort, stray=stray, sub_id=int(stray)
        )
        assert entry.flags == (sort * FLAG_SORTED) | (stray * FLAG_STRAY)
        with LogReader(path) as reader:
            full = reader.read_sst(entry)
            read = reader.read_sst(entry, lo, hi)
        want = full.batch.select(range_mask(full.batch.keys, lo, hi))
    assert np.array_equal(read.batch.keys, want.keys)
    assert read.batch.keys.tobytes() == want.keys.tobytes()  # -0.0 stays -0.0
    assert np.array_equal(read.batch.rids, want.rids)
    assert read.batch.value_size == want.value_size
    assert (full.bytes_read, full.requests) == (entry.length, 1)
    head = head_span_len(entry.count)
    if len(want):
        assert read.requests == 2 and head < read.bytes_read <= entry.length
    else:
        assert (read.bytes_read, read.requests) == (head, 1)


@pytest.fixture(scope="module", params=[True, False],
                ids=["sorted", "unsorted"])
def carp_dir(request, tmp_path_factory):
    """Real CARP output with subpartitions and stray SSTs."""
    options = CarpOptions(
        pivot_count=32, oob_capacity=64, renegotiations_per_epoch=3,
        memtable_records=700, round_records=128, value_size=16,
        subpartitions=2, sort_ssts=request.param,
    )
    out = tmp_path_factory.mktemp("keysfirst")
    rng = np.random.default_rng(5)
    # the second half drifts, so late arrivals land outside the owned
    # ranges and are flushed as strays
    streams = [
        RecordBatch.from_keys(
            np.concatenate([rng.normal(0.0, 10.0, 1500),
                            rng.normal(25.0, 4.0, 1500)]).astype(np.float32),
            rank=rank, value_size=16,
        )
        for rank in range(4)
    ]
    with CarpRun(4, out, options) as run:
        run.ingest_epoch(0, streams)
    with PartitionedStore(out) as store:
        entries = [e for _, e in store.entries(0)]
    assert any(e.flags & FLAG_STRAY for e in entries)
    assert len({e.sub_id for e in entries}) > 1
    assert all(bool(e.flags & FLAG_SORTED) == request.param for e in entries)
    keys = np.concatenate([s.keys for s in streams])
    rids = np.concatenate([s.rids for s in streams])
    return out, keys, rids


@pytest.mark.parametrize("kernels", KERNEL_NAMES)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_store_query_equals_full_reads_plus_mask(carp_dir, kernels, data):
    out, keys, rids = carp_dir
    anchors = _anchors(data.draw(st.lists(st.sampled_from(keys.tolist()),
                                          min_size=2, max_size=2)))
    lo, hi = sorted(data.draw(st.lists(st.sampled_from(anchors),
                                       min_size=2, max_size=2)))
    with use_kernels(kernels), PartitionedStore(out) as store:
        result = store.query(0, lo, hi)
        runs = []
        for reader_idx, entry in store.overlapping_entries(0, lo, hi):
            full = store._readers[reader_idx].read_sst(entry).batch
            runs.append(full.select(range_mask(full.keys, lo, hi)))
        want = RecordBatch.concat(runs).sorted_by_key()
        mask = range_mask(keys, lo, hi)
    assert np.array_equal(result.keys, want.keys)
    assert np.array_equal(result.rids, want.rids)
    # and both agree with brute force over the ingested streams
    assert sorted(result.rids.tolist()) == sorted(rids[mask].tolist())
    assert result.cost.bytes_read <= result.cost.candidate_bytes
