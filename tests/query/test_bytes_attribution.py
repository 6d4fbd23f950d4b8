"""Probes touch only in-range SST byte ranges — nothing else.

Before the mmap readers, ``PartitionedStore.query`` re-read whole log
files per probe; before keys-first probes it read every candidate SST
whole.  This pins both fixes, and that no probe re-reads an SST head
the open already verified.  A list attached to ``LogReader.touched``
records the ``(offset, length)`` of every span actually consulted, so
the tests can assert byte-range containment exactly: every touched
span lies inside a manifest entry that overlaps the query, the totals
*are* ``QueryCost.bytes_read`` / ``read_requests``, a keys-only probe
stops at the key block, and a selective full-record probe moves a
small share of its candidates' bytes.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.exec.work import probe_entries
from repro.query.engine import PartitionedStore
from repro.storage.log import list_logs
from repro.storage.sstable import head_span_len, keys_span_len

OPTIONS = CarpOptions(
    pivot_count=16,
    oob_capacity=32,
    renegotiations_per_epoch=2,
    memtable_records=64,
    round_records=32,
    value_size=24,
)

NRANKS = 2
EPOCHS = 2

#: A narrow slice of the [0, 100] key domain: overlaps some SSTs per
#: epoch but nowhere near all of them.
LO, HI = 40.0, 45.0


@pytest.fixture(scope="module")
def db_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("attribution")
    with CarpRun(NRANKS, out, OPTIONS) as run:
        for epoch in range(EPOCHS):
            streams = [
                RecordBatch(
                    np.linspace(rank, 100.0 + rank, 400, dtype="<f4"),
                    np.arange(400, dtype="<u8")
                    + np.uint64(rank) * np.uint64(1 << 32),
                    OPTIONS.value_size,
                )
                for rank in range(NRANKS)
            ]
            run.ingest_epoch(epoch, streams)
    return out


def _attach(store) -> None:
    """Start recording every reader's spans (off by default)."""
    for reader in store._readers:
        reader.touched = []


def _spans_within(touched, allowed) -> bool:
    """Every touched (offset, length) lies inside one allowed entry."""
    return all(
        any(off >= a_off and off + length <= a_off + a_len
            for a_off, a_len in allowed)
        for off, length in touched
    )


@pytest.mark.parametrize("keys_only", [False, True], ids=["values", "keys"])
def test_probe_touches_only_in_range_entries(db_dir, keys_only):
    with PartitionedStore(db_dir) as store:
        _attach(store)
        result = store.query(0, LO, HI, keys_only=keys_only)
        assert len(result.keys) > 0
        candidates = store.overlapping_entries(0, LO, HI)
        assert candidates, "narrow query should still overlap some SSTs"
        by_reader: dict[int, list] = {}
        for reader_idx, entry in candidates:
            by_reader.setdefault(reader_idx, []).append(entry)
        total_touched = total_spans = 0
        for reader_idx, reader in enumerate(store._readers):
            allowed = [
                (e.offset, e.length) for e in by_reader.get(reader_idx, [])
            ]
            assert _spans_within(reader.touched, allowed), (
                f"{reader.path.name}: touched spans escape the in-range "
                f"entries: {reader.touched} vs {allowed}"
            )
            # a key-chunk span for each candidate whose zones meet the
            # range and a value span for those with matches (the heads
            # were read at open) — never one per file
            assert len(reader.touched) <= 2 * len(allowed)
            total_touched += sum(length for _, length in reader.touched)
            total_spans += len(reader.touched)
        # the touched spans ARE the accounted bytes and requests
        # (carp-explain reconciles against the same numbers)
        assert total_touched == result.cost.bytes_read
        assert total_spans == result.cost.read_requests
        assert result.cost.bytes_read <= result.cost.candidate_bytes
        # and strictly less than re-reading the files whole
        file_bytes = sum(p.stat().st_size for p in list_logs(db_dir))
        assert total_touched < file_bytes / 2


def test_keys_only_touches_key_prefix_only(db_dir):
    with PartitionedStore(db_dir) as store:
        _attach(store)
        result = store.query(0, LO, HI, keys_only=True)
        candidates = store.overlapping_entries(0, LO, HI)
        # the model prices each candidate's head + key block fetched
        # whole; zone maps let the probes touch at most that
        assert result.cost.candidate_bytes == sum(
            keys_span_len(e.count) for _, e in candidates
        )
        assert result.cost.bytes_read <= result.cost.candidate_bytes
        for reader_idx, reader in enumerate(store._readers):
            mine = [e for i, e in candidates if i == reader_idx]
            # every span (key chunks) lies inside a key prefix
            assert _spans_within(
                reader.touched, [(e.offset, keys_span_len(e.count)) for e in mine]
            )
            # with real value payloads the key prefix is a strict subset
            # of the SST — value blocks stay untouched
            assert all(keys_span_len(e.count) < e.length for e in mine)


def test_other_epoch_entries_untouched(db_dir):
    with PartitionedStore(db_dir) as store:
        _attach(store)
        store.query(1, LO, HI)
        epoch0 = {
            (i, e.offset) for i, e in store.entries(epoch=0)
        }
        for reader_idx, reader in enumerate(store._readers):
            for offset, _length in reader.touched:
                assert (reader_idx, offset) not in epoch0


@pytest.mark.parametrize("keys_only", [False, True], ids=["values", "keys"])
def test_no_query_reads_a_head_after_open(db_dir, keys_only):
    """Every SST head was verified at open: no probe span starts at an
    SST's offset, over narrow, empty, wide and whole-epoch ranges."""
    with PartitionedStore(db_dir) as store:
        _attach(store)
        for epoch in store.epochs():
            lo, hi = store.key_range(epoch)
            for qlo, qhi in [(LO, HI), (-5.0, -1.0), (10.0, 90.0), (lo, hi)]:
                store.query(epoch, qlo, qhi, keys_only=keys_only)
        assert sum(len(r.touched) for r in store._readers) > 0
        for reader in store._readers:
            starts = {e.offset for e in reader.entries}
            assert not starts & {off for off, _ in reader.touched}
            assert reader.heads_decoded == len(reader.entries)


def test_touched_records_nothing_unless_attached(db_dir):
    with PartitionedStore(db_dir) as store:
        result = store.query(0, LO, HI)
        assert all(reader.touched is None for reader in store._readers)
        # the shared counters keep counting regardless
        assert (sum(reader.bytes_read for reader in store._readers)
                == result.cost.bytes_read)
        assert (sum(reader.read_requests for reader in store._readers)
                == result.cost.read_requests)


def test_selective_probe_skips_most_candidate_bytes(tmp_path):
    """0.1 % selectivity over paper-geometry SSTs: < 25 % of candidates."""
    options = CarpOptions(value_size=56)  # default memtables
    rng = np.random.default_rng(7)
    streams = [
        RecordBatch.from_keys(
            rng.uniform(0.0, 1000.0, 40_000).astype("<f4"), rank=rank,
            value_size=options.value_size,
        )
        for rank in range(NRANKS)
    ]
    with CarpRun(NRANKS, tmp_path, options) as run:
        run.ingest_epoch(0, streams)
    keys = np.sort(np.concatenate([s.keys for s in streams]))
    start = len(keys) // 2
    lo, hi = float(keys[start]), float(keys[start + len(keys) // 1000])
    with PartitionedStore(tmp_path) as store:
        _attach(store)
        result = store.query(0, lo, hi)
        cost = result.cost
        assert cost.records_matched >= len(keys) // 1000
        assert cost.candidate_bytes == sum(
            e.length for _, e in store.overlapping_entries(0, lo, hi)
        )
        assert cost.bytes_read < 0.25 * cost.candidate_bytes
        # no candidate pays its head (read at open); only matching ones
        # pay values
        heads = sum(
            head_span_len(e.count)
            for _, e in store.overlapping_entries(0, lo, hi)
        )
        assert cost.bytes_read <= cost.candidate_bytes - heads
        assert cost.bytes_read == sum(
            length for reader in store._readers
            for _, length in reader.touched
        )


def test_concurrent_probes_on_one_reader_account_their_own_bytes(db_dir):
    """Per-probe bytes come from the read calls, not the shared counter."""
    ranges = [(10.0 + 7 * i, 14.0 + 7 * i) for i in range(8)]
    with PartitionedStore(db_dir) as store:
        log, reader = max(enumerate(store._readers),
                          key=lambda pair: len(pair[1].entries))
        work = [
            ([e for i, e in store.overlapping_entries(0, lo, hi) if i == log],
             lo, hi)
            for lo, hi in ranges
        ]
        serial = [probe_entries(reader, e, lo, hi, False) for e, lo, hi in work]
        before = reader.bytes_read
        got: dict[int, list] = {}

        def loop(worker: int) -> None:
            got[worker] = [
                probe_entries(reader, e, lo, hi, False)
                for _ in range(20) for e, lo, hi in work
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=loop, args=(w,)) for w in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for results in got.values():
            for i, probe in enumerate(results):
                want = serial[i % len(serial)]
                assert (probe.bytes_read, probe.requests) == (
                    want.bytes_read, want.requests
                )
        assert all(p.bytes_read > 0 for p in serial)
        # the shared counter moved under both threads at once, which is
        # why no probe may derive its own share from it
        assert reader.bytes_read > before
