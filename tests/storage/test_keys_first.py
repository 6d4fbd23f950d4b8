"""Keys-first ranged reads over SST format v3: integrity follows the slice.

Two contracts.  *Integrity*: a ranged ``LogReader.read_sst(entry, lo,
hi)`` verifies everything it returns — damage to the header, the chunk
index (zone map, CRC pairs, the index's own CRC), a *searched* key
chunk or a *matched* value chunk raises ``BlockCorruptionError`` —
while damage to a key chunk whose zone misses the range, or to an
unmatched value chunk, is invisible to it and is caught by every full
read (plain ``read_sst``, ``scan``, ``carp fsck``, deep recovery
classification).  *Equivalence*: on both kernel backends, a ranged
``read_sst`` or ``read_sst_keys`` returns exactly what a full read
followed by ``range_mask`` returns — same records, same order —
whatever the SST's size, ordering or flags, and searches exactly the
chunks from the first to the last whose zone meets the range.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main
from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch, range_mask
from repro.query.engine import PartitionedStore
from repro.storage import sstable
from repro.storage.blocks import (
    CHUNK_RECORDS,
    CRC_BYTES,
    BlockCorruptionError,
    chunk_count,
    chunk_index_size,
    zone_map,
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

from tests.kernels.scalar import BACKENDS, use_backend

VALUE_SIZE = 24
#: four chunks: 256 + 256 + 256 + 232 records
COUNT = 3 * CHUNK_RECORDS + 232
CHUNKS = chunk_count(COUNT)
CHUNK_BYTES = CHUNK_RECORDS * VALUE_SIZE
KEY_CHUNK_BYTES = CHUNK_RECORDS * 4
#: row i holds key float(i), so [300, 400] matches rows of chunk 1 only
LO, HI = 300.0, 400.0
MATCHED_CHUNK, UNMATCHED_CHUNK = 1, 3

ZONES_START = HEADER_SIZE
PAIRS_START = ZONES_START + 8 * CHUNKS
INDEX_CRC_START = PAIRS_START + 8 * CHUNKS
KEYS_START = head_span_len(COUNT)
VALUES_START = keys_span_len(COUNT)


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


def _forge_header(data: bytes, field: int, value: int) -> bytes:
    """``data`` with one header field replaced and the header re-CRC'd."""
    fields = list(struct.unpack(sstable._HEADER_FMT, data[:HEADER_SIZE]))
    fields[field] = value
    hdr = struct.pack(sstable._HEADER_FMT, *fields)[:-CRC_BYTES]
    crc = (zlib.crc32(hdr) & 0xFFFFFFFF).to_bytes(CRC_BYTES, "little")
    return hdr + crc + data[HEADER_SIZE:]


class TestFormat:
    def test_v1_is_rejected(self):
        data = bytearray(build_sstable(RecordBatch.from_keys(
            np.array([1.0], np.float32), value_size=8), 0)[0])
        assert int.from_bytes(data[4:6], "little") == SST_FORMAT_VERSION == 3
        data[4:6] = (1).to_bytes(2, "little")
        with pytest.raises(BlockCorruptionError, match="format version 1"):
            parse_header(bytes(data))

    def test_v2_is_rejected(self, tmp_path):
        """A well-formed v2 header (its CRC intact) is refused, on every path."""
        batch = RecordBatch.from_keys(np.array([1.0, 2.0], np.float32),
                                      value_size=8)
        path, entry = _write_log(tmp_path, batch)
        data = path.read_bytes()
        sst = _forge_header(data[: entry.length], 1, 2)
        path.write_bytes(sst + data[entry.length :])
        with pytest.raises(BlockCorruptionError, match="format version 2"):
            parse_header(sst)
        with LogReader(path) as reader:
            for read in (lambda: reader.read_sst(entry),
                         lambda: reader.read_sst(entry, 0.0, 5.0),
                         lambda: reader.read_sst_keys(entry, 0.0, 5.0)):
                with pytest.raises(BlockCorruptionError) as info:
                    read()
                assert type(info.value) is BlockCorruptionError
        assert not fsck(tmp_path).ok

    def test_foreign_chunk_size_is_rejected(self):
        data = build_sstable(RecordBatch.from_keys(
            np.array([1.0], np.float32), value_size=8), 0)[0]
        fields = struct.unpack(sstable._HEADER_FMT, data[:HEADER_SIZE])
        assert fields[-2] == CHUNK_RECORDS
        with pytest.raises(BlockCorruptionError, match="chunk size 128"):
            parse_header(_forge_header(data, len(fields) - 2, 128))

    def test_index_costs_sixteen_bytes_a_chunk(self, log):
        _path, entry, _batch = log
        # zone (min, max f32) + (key CRC, value CRC) per chunk, one CRC
        assert KEYS_START - HEADER_SIZE == chunk_index_size(COUNT)
        assert chunk_index_size(COUNT) == 16 * CHUNKS + CRC_BYTES
        assert VALUES_START - KEYS_START == 4 * COUNT
        assert entry.length == VALUES_START + COUNT * VALUE_SIZE

    def test_head_is_small_for_a_big_sst(self):
        """The head a reader verifies at open grows 16 B per 256 records."""
        assert head_span_len(16_384) == 64 + 64 * 16 + 4 == 1092
        assert keys_span_len(16_384) - head_span_len(16_384) == 65_536


def _assert_every_full_read_catches(log, offset):
    """Damage at ``offset`` (outside the [LO, HI] probe) is invisible to
    ranged queries and caught by scan, fsck and deep classification."""
    path, _entry, _batch = log
    _flip(path, offset)
    with PartitionedStore(path.parent) as store:
        assert len(store.query(0, LO, HI)) == 101
        assert len(store.query(0, LO, HI, keys_only=True)) == 101
        with pytest.raises(BlockCorruptionError):
            store.scan(0)
    report = fsck(path.parent)
    assert not report.ok
    assert any("corrupt SST" in e for e in report.errors)
    assert main(["fsck", "-i", str(path.parent)]) == 1
    assert classify_log(path, deep=True).kind == KIND_CORRUPT_SST


class TestIntegrityMatrix:
    @pytest.mark.parametrize("offset", [
        pytest.param(20, id="header"),
        pytest.param(KEYS_START + 4 * 350 + 1, id="key-block"),
        pytest.param(ZONES_START + 8 * UNMATCHED_CHUNK + 2, id="zone-map"),
        pytest.param(PAIRS_START + 8 * UNMATCHED_CHUNK + CRC_BYTES,
                     id="crc-table-entry"),
        pytest.param(INDEX_CRC_START + 2, id="crc-table-crc"),
        pytest.param(VALUES_START + MATCHED_CHUNK * CHUNK_BYTES + 17,
                     id="matched-chunk"),
    ])
    def test_damage_the_ranged_read_depends_on_raises(self, log, offset):
        path, entry, _batch = log
        _flip(path, offset)
        with LogReader(path) as reader:
            for read in (lambda: reader.read_sst(entry, LO, HI),
                         lambda: reader.read_sst(entry)):
                with pytest.raises(BlockCorruptionError) as info:
                    read()
                assert type(info.value) is BlockCorruptionError
            if offset < VALUES_START:
                with pytest.raises(BlockCorruptionError):
                    reader.read_sst_keys(entry, LO, HI)

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
        _flip(path, KEYS_START + UNMATCHED_CHUNK * KEY_CHUNK_BYTES + 9)
        want = batch.select(range_mask(batch.keys, LO, HI))
        with LogReader(path) as reader:
            read = reader.read_sst(entry, LO, HI)
            assert np.array_equal(read.batch.keys, want.keys)
            assert np.array_equal(read.batch.rids, want.rids)
            # the one key chunk searched + its value chunk: the head
            # was read when the reader opened
            assert read.bytes_read == KEY_CHUNK_BYTES + CHUNK_BYTES
            assert (read.requests, read.key_chunks) == (2, 1)
            keys = reader.read_sst_keys(entry, LO, HI)
            assert np.array_equal(keys.keys, want.keys)
            assert (keys.bytes_read, keys.requests, keys.key_chunks) == (
                KEY_CHUNK_BYTES, 1, 1
            )
            with pytest.raises(BlockCorruptionError, match="key chunk 3"):
                reader.read_sst(entry)
            with pytest.raises(BlockCorruptionError, match="key chunk 3"):
                reader.read_sst_keys(entry)

    def test_unmatched_chunk_damage_is_caught_by_every_full_read(self, log):
        _assert_every_full_read_catches(
            log, VALUES_START + UNMATCHED_CHUNK * CHUNK_BYTES + 5
        )

    def test_unmatched_key_chunk_damage_is_caught_by_every_full_read(self, log):
        _assert_every_full_read_catches(
            log, KEYS_START + UNMATCHED_CHUNK * KEY_CHUNK_BYTES + 9
        )

    def test_a_zone_that_lies_is_caught_by_fsck(self, log):
        """A zone map that disagrees with its chunk's keys (the index CRC
        re-computed over it, as a writer bug would) fails every full read."""
        path, entry, _batch = log
        data = bytearray(path.read_bytes())
        zones = np.frombuffer(
            bytes(data[ZONES_START:PAIRS_START]), dtype="<f4"
        ).reshape(CHUNKS, 2).copy()
        assert np.array_equal(zones, zone_map(np.arange(COUNT, dtype="<f4")))
        zones[2] = (-2.0, -1.0)
        data[ZONES_START:PAIRS_START] = zones.tobytes()
        body = bytes(data[ZONES_START:INDEX_CRC_START])
        data[INDEX_CRC_START:KEYS_START] = (
            zlib.crc32(body) & 0xFFFFFFFF
        ).to_bytes(CRC_BYTES, "little")
        path.write_bytes(bytes(data))
        with LogReader(path) as reader:
            with pytest.raises(BlockCorruptionError, match="chunk 2: zone"):
                reader.read_sst(entry)
        report = fsck(path.parent)
        assert any("zone does not match" in e for e in report.errors)
        assert main(["fsck", "-i", str(path.parent)]) == 1


# ---------------------------------------------------------- equivalence

#: a small pool so duplicates, both zeros and adjacent floats collide
_POOL = [-0.0, 0.0, 1.0, float(np.nextafter(np.float32(1.0), np.float32(2.0))),
         -3.5, 7.25, 1e-30, 1e30, 42.0]
_KEY = st.one_of(
    st.sampled_from(_POOL),
    st.floats(-1e6, 1e6, allow_nan=False, width=32),
)
_COUNT_CHOICES = [1, 2, CHUNK_RECORDS - 1, CHUNK_RECORDS, CHUNK_RECORDS + 1,
                  2 * CHUNK_RECORDS + 37, 3 * CHUNK_RECORDS, 5 * CHUNK_RECORDS + 3]


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


#: bounds no store key equals: a ranged read of them is legal and
#: matches nothing (NaN) or is open at one end (±inf)
_SPECIAL = [math.nan, math.inf, -math.inf]


@st.composite
def _sst_and_ranges(draw):
    # multi-chunk SSTs first: the warm path only differs from the cold
    # one where a range reads some verified chunks and some not
    count = draw(st.sampled_from(sorted(_COUNT_CHOICES, reverse=True)))
    seed = draw(st.integers(0, 2**16))
    base = draw(st.lists(_KEY, min_size=1, max_size=12))
    rng = np.random.default_rng(seed)
    keys = np.asarray(base, dtype=np.float32)[rng.integers(0, len(base), count)]
    if draw(st.booleans()):
        # mostly distinct keys instead of a handful of heavy duplicates
        keys = (keys + rng.uniform(-50, 50, count)).astype(np.float32)
    # bounds near a few stored keys, so the ranges read before the
    # target verify some of its chunks and not others
    anchors = _anchors(draw(st.lists(st.sampled_from(keys.tolist()),
                                     min_size=2, max_size=5)))
    bound = st.sampled_from(anchors) | _KEY | st.sampled_from(_SPECIAL)

    @st.composite
    def ranged(draw):
        lo, hi = draw(bound), draw(bound)
        if hi < lo and draw(st.booleans()):
            # mostly ordered, but lo > hi is a legal read that matches nothing
            lo, hi = hi, lo
        return float(lo), float(hi)

    # a one-key range verifies the chunks holding that key and no other
    one_key = st.sampled_from(keys.tolist()).map(lambda k: (k, k))
    target = draw(ranged())
    others = draw(st.lists(st.tuples(one_key | ranged(), st.booleans()),
                           min_size=1, max_size=4))
    return keys, target, others, draw(st.booleans()), draw(st.booleans())


def _reference_spans(entry, keys: np.ndarray, lo: float, hi: float):
    """The (offset, length) spans a ranged read of ``[lo, hi]`` must count:
    the key chunks from the first to the last whose zone meets the range
    (float64 zone overlap), then the value chunks from the first matched
    row's to the last's.  ``keys`` are the SST's keys in file order."""
    if not lo <= hi:
        return None, None, 0
    zones = zone_map(keys).astype(np.float64)
    hits = np.flatnonzero((zones[:, 1] >= lo) & (zones[:, 0] <= hi))
    if not len(hits):
        return None, None, 0
    first, stop = int(hits[0]), int(hits[-1]) + 1
    begin, end = first * CHUNK_RECORDS, min(stop * CHUNK_RECORDS, entry.count)
    key_span = (entry.offset + head_span_len(entry.count) + 4 * begin,
                4 * (end - begin))
    rows = np.flatnonzero(range_mask(keys, lo, hi))
    if not len(rows):
        return key_span, None, stop - first
    vbegin = int(rows[0]) // CHUNK_RECORDS * CHUNK_RECORDS
    vend = min((int(rows[-1]) // CHUNK_RECORDS + 1) * CHUNK_RECORDS, entry.count)
    value_size = (entry.length - keys_span_len(entry.count)) // entry.count
    value_span = (entry.offset + keys_span_len(entry.count) + value_size * vbegin,
                  value_size * (vend - vbegin))
    return key_span, value_span, stop - first


def _check_ranged(reader, entry, full, lo, hi, keys_first):
    """One ``read_sst`` and one ``read_sst_keys`` of ``[lo, hi]``: each
    equals the whole read plus ``range_mask`` byte for byte, and counts
    exactly the reference spans, whatever the reader verified before."""
    want = full.select(range_mask(full.keys, lo, hi))
    key_span, value_span, chunks = _reference_spans(entry, full.keys, lo, hi)
    key_spans = [key_span] if key_span else []
    spans = key_spans + ([value_span] if value_span else [])

    def records():
        reader.touched = []
        read = reader.read_sst(entry, lo, hi)
        assert reader.touched == spans
        assert read.batch.keys.tobytes() == want.keys.tobytes()  # -0.0 stays -0.0
        assert read.batch.rids.tobytes() == want.rids.tobytes()
        assert read.batch.value_size == want.value_size
        assert (read.bytes_read, read.requests, read.key_chunks) == (
            sum(length for _, length in spans), len(spans), chunks)
        for array in (read.batch.keys, read.batch.rids):
            assert not array.flags.writeable

    def keys():
        reader.touched = []
        read = reader.read_sst_keys(entry, lo, hi)
        assert reader.touched == key_spans
        assert read.keys.tobytes() == want.keys.tobytes()
        assert (read.bytes_read, read.requests, read.key_chunks) == (
            sum(length for _, length in key_spans), len(key_spans), chunks)
        assert not read.keys.flags.writeable

    for read in ((keys, records) if keys_first else (records, keys)):
        read()
    reader.touched = None


@pytest.mark.parametrize("kernels", BACKENDS)
@given(case=_sst_and_ranges(), keys_first=st.booleans())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_ranged_read_equals_full_read_plus_mask(tmp_path, kernels, case, keys_first):
    """Cold, warm, and after other ranges verified part of the columns."""
    keys, (lo, hi), others, sort, stray = case
    batch = RecordBatch.from_keys(keys, rank=3, value_size=16)
    with use_backend(kernels):
        path, entry = _write_log(
            tmp_path, batch, sort=sort, stray=stray, sub_id=int(stray)
        )
        assert entry.flags == (sort * FLAG_SORTED) | (stray * FLAG_STRAY)
        with LogReader(path) as reader:
            full = reader.read_sst(entry)
        assert (full.bytes_read, full.requests) == (entry.length, 1)
        assert full.key_chunks == chunk_count(entry.count)
        with LogReader(path) as reader:
            _check_ranged(reader, entry, full.batch, lo, hi, keys_first)  # cold
            _check_ranged(reader, entry, full.batch, lo, hi, keys_first)  # warm
        with LogReader(path) as reader:
            for (a, b), keys_only in others:
                if keys_only:
                    reader.read_sst_keys(entry, a, b)
                else:
                    reader.read_sst(entry, a, b)
            _check_ranged(reader, entry, full.batch, lo, hi, keys_first)


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


@pytest.mark.parametrize("kernels", BACKENDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_store_query_equals_full_reads_plus_mask(carp_dir, kernels, data):
    out, keys, rids = carp_dir
    anchors = _anchors(data.draw(st.lists(st.sampled_from(keys.tolist()),
                                          min_size=2, max_size=2)))
    lo, hi = sorted(data.draw(st.lists(st.sampled_from(anchors),
                                       min_size=2, max_size=2)))
    with use_backend(kernels), PartitionedStore(out) as store:
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
