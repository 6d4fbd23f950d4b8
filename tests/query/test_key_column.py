"""Key chunks are verified once per open store, and a damaged one fails
only the queries that search it.

A ``LogReader`` keeps a key column per SST its ranged reads searched:
the first read that needs a key chunk verifies it (CRC, finite keys)
and copies it in, and later reads search the copy.  What a query
returns and what it costs must not depend on what an earlier query
verified; a chunk that fails its check is never kept, so every query
that searches it raises ``BlockCorruptionError``; damage after a chunk
was verified is served from the verified copy, while ``fsck`` still
reads every byte from the file.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch, range_mask
from repro.query.engine import PartitionedStore
from repro.storage.blocks import BlockCorruptionError
from repro.storage.log import LogReader, LogWriter, list_logs
from repro.storage.sstable import key_chunks_span

OPTIONS = CarpOptions(
    pivot_count=16,
    oob_capacity=32,
    renegotiations_per_epoch=2,
    memtable_records=1024,
    round_records=128,
    value_size=24,
)
NRANKS = 2


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A two-rank, one-epoch store of multi-chunk SSTs and its records."""
    out = tmp_path_factory.mktemp("columns")
    rng = np.random.default_rng(5)
    streams = [
        RecordBatch.from_keys(
            rng.uniform(0.0, 100.0, 3000).astype("<f4"), rank=rank,
            value_size=OPTIONS.value_size,
        )
        for rank in range(NRANKS)
    ]
    with CarpRun(NRANKS, out, OPTIONS) as run:
        run.ingest_epoch(0, streams)
    return out, RecordBatch.concat(streams)


def _first_sst(store):
    """Log 0's first SST (sorted, four chunks) and that log's reader."""
    reader = store._readers[0]
    entry = reader.entries[0]
    assert reader._probe(entry).info.is_sorted
    assert len(reader._probe(entry).zmin) == 4
    return reader, entry


def _zone(reader, entry, chunk: int) -> tuple[float, float]:
    head = reader._probe(entry)
    return float(head.zmin[chunk]), float(head.zmax[chunk])


def _flip(path, offset: int) -> None:
    """Flip one bit at ``offset`` in place (an open map sees it)."""
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 0x01]))


def _key_chunk_offset(entry, chunk: int) -> int:
    return entry.offset + key_chunks_span(entry.count, chunk, chunk + 1)[0]


def _assert_answer(result, records, lo, hi) -> None:
    want = records.select(range_mask(records.keys, lo, hi))
    order = np.lexsort((want.rids, want.keys))
    got = np.lexsort((result.rids, result.keys))
    assert len(result) > 0
    assert np.array_equal(result.keys[got], want.keys[order])
    assert np.array_equal(result.rids[got], want.rids[order])


def _column_arrays(store):
    """Every key and rid array the store's columns hold."""
    return [chunks.data for r in store._readers for c in r._columns.values()
            for chunks in (c.keys, c.rids) if chunks is not None]


def test_a_repeated_query_verifies_nothing_new(built):
    src, _records = built
    with PartitionedStore(src) as store:
        for reader in store._readers:
            reader.touched = []
        assert store.key_chunks_verified == 0
        for keys_only in (False, True):
            first = store.query(0, 20.0, 30.0, keys_only=keys_only)
            verified = store.key_chunks_verified
            touched = [list(r.touched) for r in store._readers]
            assert 0 < verified <= first.cost.key_chunks_read
            again = store.query(0, 20.0, 30.0, keys_only=keys_only)
            assert store.key_chunks_verified == verified
            assert again.cost == first.cost
            assert np.array_equal(again.keys, first.keys)
            assert np.array_equal(again.rids, first.rids)
            # the column serves the span, and it is still accounted as read
            assert [r.touched[len(t):] for r, t in
                    zip(store._readers, touched)] == touched
            for reader in store._readers:
                reader.touched = []
    assert store.key_chunks_verified == 0  # close() dropped the columns


def test_damage_before_first_touch_fails_every_query_of_that_chunk(
    built, tmp_path
):
    src, records = built
    db = tmp_path / "db"
    shutil.copytree(src, db)
    with PartitionedStore(db) as store:
        reader, entry = _first_sst(store)
        _flip(list_logs(db)[0], _key_chunk_offset(entry, 2))
        damaged = [_zone(reader, entry, 2),
                   (_zone(reader, entry, 1)[0], _zone(reader, entry, 3)[1])]
        for _ in range(2):
            for lo, hi in damaged:
                for keys_only in (False, True):
                    with pytest.raises(BlockCorruptionError,
                                       match="key chunk 2: CRC mismatch"):
                        store.query(0, lo, hi, keys_only=keys_only)
        assert reader._columns[entry.offset].keys.verified[2] == 0
        # the SST's other chunks still answer exactly, before and after
        lo, hi = _zone(reader, entry, 0)
        _assert_answer(store.query(0, lo, hi), records, lo, hi)
        with pytest.raises(BlockCorruptionError):
            store.query(0, *damaged[0])
        _assert_answer(store.query(0, lo, hi), records, lo, hi)
    assert main(["fsck", "-i", str(db)]) == 1


def test_damage_after_first_touch_is_served_from_the_verified_copy(
    built, tmp_path
):
    src, records = built
    db = tmp_path / "db"
    shutil.copytree(src, db)
    with PartitionedStore(db) as store:
        reader, entry = _first_sst(store)
        lo, hi = _zone(reader, entry, 2)
        before = store.query(0, lo, hi)
        _assert_answer(before, records, lo, hi)
        verified = store.key_chunks_verified
        _flip(list_logs(db)[0], _key_chunk_offset(entry, 2))
        after = store.query(0, lo, hi)
        assert store.key_chunks_verified == verified
        assert after.cost == before.cost
        assert np.array_equal(after.keys, before.keys)
        assert np.array_equal(after.rids, before.rids)
    # a fresh open verifies from the file again, and fsck reads it whole
    with PartitionedStore(db) as store:
        with pytest.raises(BlockCorruptionError):
            store.query(0, lo, hi)
    assert main(["fsck", "-i", str(db)]) == 1


def test_a_non_finite_key_fails_the_chunk_that_holds_it(tmp_path):
    """A key chunk that passes its CRC but holds a non-finite key was
    not written by any writer: searching it raises, like a CRC
    mismatch, the chunks around it still answer, and fsck reports the
    SST corrupt instead of dying on it."""
    keys = np.arange(300, dtype="<f4")
    keys[-1] = np.inf
    batch = RecordBatch._derived(keys, np.arange(300, dtype="<u8"), 24)
    path = tmp_path / "RDB-00000000.tbl"
    with LogWriter(path) as writer:
        entry = writer.append_batch(batch, 0)
        writer.flush_epoch(0)
    with LogReader(path) as reader:
        for _ in range(2):
            with pytest.raises(BlockCorruptionError,
                               match="key chunk 1: non-finite key"):
                reader.read_sst(entry, 260.0, 270.0)
            with pytest.raises(BlockCorruptionError, match="non-finite"):
                reader.read_sst_keys(entry, 260.0, 270.0)
        got = reader.read_sst(entry, 10.0, 20.0).batch
        assert np.array_equal(got.keys, keys[10:21])
        assert reader.key_chunks_verified == 1
    assert main(["fsck", "-i", str(tmp_path)]) == 1


def test_results_own_their_arrays_and_ranged_keys_are_read_only(built):
    src, _records = built
    with PartitionedStore(src) as store:
        results = [
            store.query(0, lo, hi, keys_only=keys_only)
            for lo, hi in [(20.0, 30.0), (47.0, 50.0), (0.001, 0.2)]
            for keys_only in (False, True)
        ]
        columns = _column_arrays(store)
        assert columns
        for result in results:
            assert len(result)
            for array in (result.keys, result.rids):
                assert array.flags.writeable
                assert not any(np.shares_memory(array, c) for c in columns)
        # ranged reads hand out the column read-only, sorted SST (a
        # slice of it) or not (rows picked by a mask)
        reads = 0
        for reader in store._readers:
            for entry in reader.entries:
                lo, hi = entry.kmin, entry.kmax
                keys = [reader.read_sst(entry, lo, hi).batch.keys,
                        reader.read_sst_keys(entry, lo, hi).keys]
                for array in keys:
                    assert len(array)
                    assert not array.flags.writeable
                    with pytest.raises(ValueError):
                        array[0] = 0.0
                reads += 1
        assert reads == len(store.entries(0))


_BOUND = st.one_of(
    st.floats(-1.0, 101.0, width=32),
    st.sampled_from([0.0, 20.0, 46.65747, 46.7375, 48.5766, 50.0, 100.0]),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_BOUND, _BOUND, st.booleans()),
                min_size=1, max_size=6))
def test_a_sequence_of_ranges_answers_as_fresh_stores_do(built, ranges):
    src, _records = built
    with PartitionedStore(src) as store:
        for a, b, keys_only in ranges:
            lo, hi = min(a, b), max(a, b)
            got = store.query(0, lo, hi, keys_only=keys_only)
            with PartitionedStore(src) as fresh:
                want = fresh.query(0, lo, hi, keys_only=keys_only)
            assert got.cost == want.cost
            assert np.array_equal(got.keys, want.keys)
            assert np.array_equal(got.rids, want.rids)
