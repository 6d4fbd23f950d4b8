"""SST heads are verified once, when a reader opens — and a damaged one
fails only the queries that read its SST.

A ``LogReader`` decodes every committed SST's head (header and chunk
index) at open, with the checks a probe used to run each time.  A head
that fails them must not fail the open: the store still serves every
query whose candidates miss that SST, exactly, and a query that reads
it raises ``BlockCorruptionError``.  ``fsck`` never consults the table,
so it still reports the damage as ``corrupt-sst``.
"""

from __future__ import annotations

import dataclasses
import shutil

import numpy as np
import pytest

from repro.cli import main
from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch, range_mask
from repro.query.engine import PartitionedStore
from repro.storage.blocks import BlockCorruptionError
from repro.storage.fsck import fsck
from repro.storage.log import list_logs
from repro.storage.recovery import KIND_CORRUPT_SST
from repro.storage.sstable import HEADER_SIZE

OPTIONS = CarpOptions(
    pivot_count=16,
    oob_capacity=32,
    renegotiations_per_epoch=2,
    memtable_records=64,
    round_records=32,
    value_size=24,
)
NRANKS = 2


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A two-rank, one-epoch store and the records ingested into it."""
    out = tmp_path_factory.mktemp("heads")
    rng = np.random.default_rng(11)
    streams = [
        RecordBatch.from_keys(
            rng.uniform(0.0, 100.0, 600).astype("<f4"), rank=rank,
            value_size=OPTIONS.value_size,
        )
        for rank in range(NRANKS)
    ]
    with CarpRun(NRANKS, out, OPTIONS) as run:
        run.ingest_epoch(0, streams)
    return out, RecordBatch.concat(streams)


def _damaged_copy(built, tmp_path, where: int):
    """A copy of the store with one byte flipped ``where`` bytes into the
    head of log 0's first SST; returns (directory, that entry)."""
    src, _records = built
    db = tmp_path / "db"
    shutil.copytree(src, db)
    with PartitionedStore(db) as store:
        entry = next(e for i, e in store.entries(0) if i == 0)
    path = list_logs(db)[0]
    data = bytearray(path.read_bytes())
    data[entry.offset + where] ^= 0x40
    path.write_bytes(bytes(data))
    return db, entry


def _range_missing(store, entry) -> tuple[float, float]:
    """A non-empty range whose candidate SSTs exclude ``entry``."""
    for _, other in store.entries(0):
        lo = hi = other.kmin
        candidates = [e for _, e in store.overlapping_entries(0, lo, hi)]
        if entry not in candidates:
            return lo, hi
    raise AssertionError("every range reads the damaged SST")


@pytest.mark.parametrize("where", [20, HEADER_SIZE + 2],
                         ids=["header", "chunk-index"])
def test_a_damaged_head_fails_only_the_queries_that_read_it(
    built, tmp_path, where
):
    db, entry = _damaged_copy(built, tmp_path, where)
    _src, records = built
    with PartitionedStore(db) as store:
        # the open decoded every head, the damaged one included
        assert store.heads_decoded == len(store.entries())
        lo, hi = _range_missing(store, entry)
        result = store.query(0, lo, hi)
        want = records.select(range_mask(records.keys, lo, hi))
        order = np.lexsort((want.rids, want.keys))
        got = np.lexsort((result.rids, result.keys))
        assert len(result) > 0
        assert np.array_equal(result.keys[got], want.keys[order])
        assert np.array_equal(result.rids[got], want.rids[order])
        for keys_only in (False, True):
            with pytest.raises(BlockCorruptionError) as info:
                store.query(0, entry.kmin, entry.kmax, keys_only=keys_only)
            assert type(info.value) is BlockCorruptionError
    report = fsck(db)
    assert not report.ok
    assert report.classifications[list_logs(db)[0].name] == KIND_CORRUPT_SST
    assert any("corrupt SST" in e for e in report.errors)
    assert main(["fsck", "-i", str(db)]) == 1


def test_a_ranged_read_of_an_uncommitted_offset_is_refused(built):
    """The head table holds committed SSTs only: an entry naming any other
    offset is a caller error, not a read of whatever bytes sit there."""
    src, _records = built
    with PartitionedStore(src) as store:
        reader = store._readers[0]
        entry = dataclasses.replace(reader.entries[0],
                                    offset=reader.entries[0].offset + 1)
        with pytest.raises(ValueError, match="no committed SST at offset"):
            reader.read_sst(entry, 0.0, 100.0)
        with pytest.raises(ValueError, match="no committed SST at offset"):
            reader.read_sst_keys(entry, 0.0, 100.0)
