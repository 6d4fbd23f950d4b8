"""Value chunks are verified once per open reader, and a damaged one
fails only the reads that need its rids.

A ranged ``LogReader.read_sst`` takes the rids of its matched rows from
the SST's verified column: the first read that needs a value chunk
fetches it, checks its CRC and copies its rids in, and later reads
take them from the copy.  A chunk that fails its check is never kept,
so every read that needs it raises ``BlockCorruptionError``; damage
after a chunk was verified is served from the verified copy until the
reader reopens, while whole reads (``carp fsck``) read every byte.
Keys-only reads never allocate rids, and ``close()`` drops the columns.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cli import main
from repro.core.records import RecordBatch, range_mask
from repro.storage.blocks import CHUNK_RECORDS, BlockCorruptionError
from repro.storage.log import LogReader, LogWriter, log_name
from repro.storage.sstable import keys_span_len

VALUE_SIZE = 24
#: four chunks: 256 + 256 + 256 + 232 records
COUNT = 3 * CHUNK_RECORDS + 232
#: row i holds key float(i) in the sorted SST, so [300, 400] matches
#: rows of chunk 1 only and [10, 20] rows of chunk 0 only
LO, HI = 300.0, 400.0
GOOD_LO, GOOD_HI = 10.0, 20.0


def _records(order: np.ndarray) -> RecordBatch:
    keys = np.arange(COUNT, dtype="<f4")[order]
    rids = (np.arange(COUNT, dtype="<u8") * 7 + 3)[order]
    return RecordBatch(keys, rids, VALUE_SIZE)


def _write(tmp_path, batch: RecordBatch, sort: bool = True):
    path = tmp_path / log_name(0)
    with LogWriter(path) as writer:
        entry = writer.append_batch(batch, 0, sort=sort)
        writer.flush_epoch(0)
    return path, entry


@pytest.fixture
def log(tmp_path):
    """One sorted four-chunk SST whose row i holds key i."""
    return _write(tmp_path, _records(np.arange(COUNT)))


def _flip_value_chunk(path, entry, chunk: int) -> None:
    """Flip one bit inside value chunk ``chunk`` in place."""
    offset = (entry.offset + keys_span_len(entry.count)
              + chunk * CHUNK_RECORDS * VALUE_SIZE + 5)
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 0x01]))


def _want(batch: RecordBatch, lo: float, hi: float) -> RecordBatch:
    return batch.select(range_mask(batch.keys, lo, hi))


def _assert_same(got: RecordBatch, want: RecordBatch) -> None:
    assert len(got) > 0
    assert np.array_equal(got.keys, want.keys)
    assert np.array_equal(got.rids, want.rids)


def test_a_bad_value_chunk_is_never_kept(log):
    path, entry = log
    _flip_value_chunk(path, entry, 1)
    with LogReader(path) as reader:
        records = _records(np.arange(COUNT))
        for _ in range(2):
            with pytest.raises(BlockCorruptionError) as err:
                reader.read_sst(entry, LO, HI)
            assert type(err.value) is BlockCorruptionError
            assert str(err.value) == "value chunk 1: CRC mismatch"
            assert reader._columns[entry.offset].rids.verified[1] == 0
        # the neighbouring chunk's rows still read, from the same column
        got = reader.read_sst(entry, GOOD_LO, GOOD_HI).batch
        _assert_same(got, _want(records, GOOD_LO, GOOD_HI))
        assert reader.value_chunks_verified == 1
        # the keys of the bad chunk's rows were fine, and still are
        keys = reader.read_sst_keys(entry, LO, HI).keys
        assert np.array_equal(keys, _want(records, LO, HI).keys)
        with pytest.raises(BlockCorruptionError, match="value chunk 1"):
            reader.read_sst(entry, LO, HI)
    assert main(["fsck", "-i", str(path.parent)]) == 1


def test_damage_after_first_use_is_served_from_the_verified_copy(log):
    path, entry = log
    records = _records(np.arange(COUNT))
    with LogReader(path) as reader:
        reader.touched = []
        before = reader.read_sst(entry, LO, HI)
        _assert_same(before.batch, _want(records, LO, HI))
        spans = list(reader.touched)
        verified = reader.value_chunks_verified
        _flip_value_chunk(path, entry, 1)
        after = reader.read_sst(entry, LO, HI)
        assert reader.value_chunks_verified == verified
        # same answer, and the same spans accounted as read
        assert after[1:] == before[1:]
        assert reader.touched[len(spans):] == spans
        _assert_same(after.batch, before.batch)
    # a fresh reader verifies from the file again, and fsck reads it whole
    with LogReader(path) as reader:
        with pytest.raises(BlockCorruptionError, match="value chunk 1"):
            reader.read_sst(entry, LO, HI)
    assert main(["fsck", "-i", str(path.parent)]) == 1


def test_keys_only_reads_hold_no_rids(log):
    path, entry = log
    with LogReader(path) as reader:
        reader.read_sst_keys(entry, 0.0, float(COUNT))
        assert reader.key_chunks_verified == 4
        assert reader._columns[entry.offset].rids is None
        assert reader.value_chunks_verified == 0
        # the first read that needs values allocates them, for its chunks only
        reader.read_sst(entry, LO, HI)
        assert reader.value_chunks_verified == 1
        assert len(reader._columns[entry.offset].rids.data) == COUNT


@pytest.mark.parametrize("sort", [True, False], ids=["sorted", "unsorted"])
def test_ranged_rids_are_read_only_and_repeat_exactly(tmp_path, sort):
    order = np.random.default_rng(3).permutation(COUNT)
    records = _records(order)
    path, entry = _write(tmp_path, records, sort=sort)
    want_all = records.sorted_by_key() if sort else records
    ranges = [(LO, HI), (GOOD_LO, GOOD_HI), (250.0, 800.0), (0.0, float(COUNT))]
    with LogReader(path) as reader:
        for _ in range(2):
            for lo, hi in ranges:
                got = reader.read_sst(entry, lo, hi).batch
                _assert_same(got, _want(want_all, lo, hi))
                assert not got.rids.flags.writeable
                with pytest.raises(ValueError):
                    got.rids[0] = 0
        assert reader.value_chunks_verified == 4


def test_two_threads_reading_one_sst_get_identical_batches(tmp_path):
    order = np.random.default_rng(4).permutation(COUNT)
    records = _records(order)
    ranges = [(float(lo), float(lo) + width)
              for width in (5.0, 60.0, 300.0) for lo in range(0, COUNT, 37)]
    for sort in (True, False):
        directory = tmp_path / ("sorted" if sort else "unsorted")
        path, entry = _write(directory, records, sort=sort)
        with LogReader(path) as reader:
            barrier = threading.Barrier(2)
            results: list[list[RecordBatch]] = [[], []]

            def run(out: list[RecordBatch]) -> None:
                barrier.wait()
                for lo, hi in ranges:
                    out.append(reader.read_sst(entry, lo, hi).batch)

            threads = [threading.Thread(target=run, args=(out,))
                       for out in results]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(results[0]) == len(results[1]) == len(ranges)
            want_all = records.sorted_by_key() if sort else records
            for (lo, hi), a, b in zip(ranges, *results):
                want = _want(want_all, lo, hi)
                for got in (a, b):
                    assert np.array_equal(got.keys, want.keys)
                    assert np.array_equal(got.rids, want.rids)


def test_close_drops_the_columns(log):
    path, entry = log
    reader = LogReader(path)
    batch = reader.read_sst(entry, LO, HI).batch
    assert reader.key_chunks_verified and reader.value_chunks_verified
    reader.close()
    assert reader._columns == {}
    assert reader.key_chunks_verified == reader.value_chunks_verified == 0
    # a batch read before close stays valid: it views owned memory
    _assert_same(batch, _want(_records(np.arange(COUNT)), LO, HI))
