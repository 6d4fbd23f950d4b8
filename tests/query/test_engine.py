"""Tests for the range query engine over real CARP/sorted output."""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.query.engine as engine_module
from repro.core.carp import CarpRun
from repro.query.engine import PartitionedStore, _overlapping_run_bytes
from repro.query.request import LIVE_TOKEN, QueryRequest, response_from_result
from repro.storage.blocks import CHUNK_RECORDS
from repro.storage.sstable import FLAG_SORTED, head_span_len


@pytest.fixture(scope="module")
def store(carp_output):
    with PartitionedStore(carp_output["dir"]) as s:
        yield s


@pytest.fixture(scope="module")
def sstore(sorted_output):
    with PartitionedStore(sorted_output) as s:
        yield s


class TestMetadata:
    def test_epochs(self, store):
        assert store.epochs() == [0, 1]

    def test_total_records(self, store, trace_keys):
        assert store.total_records(0) == len(trace_keys[0])
        assert store.total_records(1) == len(trace_keys[1])

    def test_key_range_covers_data(self, store, trace_keys):
        lo, hi = store.key_range(0)
        assert lo <= trace_keys[0].min()
        assert hi >= trace_keys[0].max()

    def test_total_bytes_positive(self, store):
        assert store.total_bytes(0) > 0

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PartitionedStore(tmp_path)

    def test_unknown_epoch_is_an_error_not_an_empty_answer(self, store):
        for call in (store.query, store.explain):
            with pytest.raises(ValueError, match=r"epoch 7 is not committed .*\[0, 1\]"):
                call(7, 0.0, 1e9)


class TestCandidateSelection:
    def test_matches_the_per_entry_walk(self, store):
        """The vectorised selection is ``ManifestEntry.overlaps`` over
        the epoch's entries, in manifest order — the per-log probe
        fan-out relies on that order — including query bounds that sit
        exactly on an entry's ``kmin``/``kmax``."""
        for epoch in store.epochs() + [99]:
            entries = [e for _, e in store.entries(epoch)]
            edges = sorted({k for e in entries for k in (e.kmin, e.kmax)})
            grid = edges[:: max(1, len(edges) // 12)] + edges[-1:]
            bounds = sorted({*grid, *(np.nextafter(k, np.inf) for k in grid),
                             *(np.nextafter(k, -np.inf) for k in grid),
                             -1.0, 0.0, 1e9})
            for lo in bounds:
                for hi in bounds:
                    if hi < lo:
                        continue
                    assert store.overlapping_entries(epoch, lo, hi) == [
                        (i, e) for i, e in store.entries()
                        if e.epoch == epoch and e.overlaps(lo, hi)
                    ], (epoch, lo, hi)

    def test_entries_per_epoch_keep_manifest_order(self, store):
        for epoch in store.epochs():
            assert store.entries(epoch) == [
                (i, e) for i, e in store.entries() if e.epoch == epoch
            ]
        assert store.entries(99) == []
        # a copy: callers may not edit the store's index through it
        store.entries(0).clear()
        assert store.entries(0)


class TestQueries:
    def test_equivalence_with_brute_force(self, store, trace_keys, trace_rids):
        keys, rids = trace_keys[0], trace_rids[0]
        for lo, hi in [(0.1, 0.5), (1.0, 10.0), (0.0, 100.0), (30.0, 60.0)]:
            res = store.query(0, lo, hi)
            mask = (keys >= lo) & (keys <= hi)
            assert set(res.rids.tolist()) == set(rids[mask].tolist())

    def test_results_sorted(self, store):
        res = store.query(0, 0.0, 5.0)
        assert np.all(np.diff(res.keys) >= 0)

    def test_boundary_keys_included(self, store, trace_keys):
        k = float(np.sort(trace_keys[0])[100])
        res = store.query(0, k, k)
        assert len(res) >= 1
        assert np.all(res.keys == np.float32(k))

    def test_empty_range_result(self, store, trace_keys):
        hi = float(trace_keys[0].max())
        res = store.query(0, hi + 100, hi + 200)
        assert len(res) == 0
        assert res.cost.ssts_read == 0

    def test_invalid_range_rejected(self, store):
        with pytest.raises(ValueError):
            store.query(0, 5.0, 1.0)

    @pytest.mark.parametrize("lo,hi", [(float("nan"), 1.0), (0.0, float("nan"))])
    def test_nan_bound_rejected(self, store, lo, hi):
        with pytest.raises(ValueError, match="NaN"):
            store.query(0, lo, hi)
        with pytest.raises(ValueError, match="NaN"):
            store.explain(0, lo, hi)

    def test_infinite_bounds_are_open(self, store, trace_keys):
        res = store.query(0, float("-inf"), float("inf"))
        assert len(res) == len(trace_keys[0])

    def test_epoch_isolation(self, store, trace_keys, trace_rids):
        res = store.query(1, 0.0, 1e6)
        assert set(res.rids.tolist()) == set(trace_rids[1].tolist())

    def test_scan_returns_everything(self, store, trace_keys):
        res = store.scan(0)
        assert len(res) == len(trace_keys[0])


class TestCosts:
    def test_selective_query_reads_fraction(self, store, trace_keys):
        keys = np.sort(trace_keys[0])
        lo, hi = float(keys[100]), float(keys[200])
        res = store.query(0, lo, hi)
        assert res.cost.bytes_read < store.total_bytes(0) * 0.7

    def test_bytes_read_matches_entries(self, store):
        """Touched bytes are the candidates' chunks, never their heads."""
        res = store.query(0, 0.2, 0.4)
        entries = store.overlapping_entries(0, 0.2, 0.4)
        cost = res.cost
        assert cost.candidate_bytes == sum(e.length for _, e in entries)
        heads = sum(head_span_len(e.count) for _, e in entries)
        assert 0 < cost.bytes_read <= cost.candidate_bytes - heads
        assert 0 < cost.read_requests <= 2 * len(entries)

    def test_scan_touches_every_candidate_byte(self, store):
        """Every candidate byte but the heads, which the open read."""
        cost = store.scan(0).cost
        assert cost.candidate_bytes == store.total_bytes(0)
        heads = sum(head_span_len(e.count) for _, e in store.entries(0))
        assert cost.bytes_read == cost.candidate_bytes - heads
        # every key chunk, every value chunk: two spans an SST
        assert cost.read_requests == 2 * cost.ssts_read
        assert cost.key_chunks_skipped == 0

    def test_no_match_touches_nothing(self, store):
        """A range that falls between two chunks' zones reads no byte.

        A sorted SST's zones are fence keys: a gap between the last key
        of one chunk and the first of the next meets no zone, so the
        probe prunes every key chunk against the head decoded at open.
        """
        reader_idx, entry = next(
            (i, e) for i, e in store.entries(0)
            if e.count > CHUNK_RECORDS and e.flags & FLAG_SORTED
        )
        reader = store._readers[reader_idx]
        keys = reader.read_sst_keys(entry).keys
        below, above = keys[CHUNK_RECORDS - 1], keys[CHUNK_RECORDS]
        lo = float(np.nextafter(below, np.float32(np.inf)))
        hi = float(np.nextafter(above, np.float32(-np.inf)))
        if hi < lo:
            pytest.skip("no representable gap between the two chunks")
        read = reader.read_sst(entry, lo, hi)
        assert len(read.batch) == 0
        assert (read.bytes_read, read.requests, read.key_chunks) == (0, 0, 0)

    def test_modeled_times_price_whole_candidates(self, store):
        cost = store.query(0, 0.2, 0.4).cost
        io = store.io
        assert cost.read_time == io.read_time(cost.candidate_bytes, cost.ssts_read)
        assert cost.merge_time == (
            io.merge_time(cost.merge_bytes) + io.scan_time(cost.candidate_bytes)
        )

    def test_latency_positive_and_composed(self, store):
        res = store.query(0, 0.1, 1.0)
        assert res.cost.latency == pytest.approx(
            res.cost.read_time + res.cost.merge_time
        )
        assert res.cost.latency > 0

    def test_carp_pays_merge_cost(self, store):
        res = store.query(0, 0.1, 1.0)
        assert res.cost.merge_bytes > 0

    def test_sorted_layout_pays_no_merge(self, sstore):
        res = sstore.query(0, 0.1, 1.0)
        assert res.cost.merge_bytes == 0

    def test_sorted_and_carp_agree(self, store, sstore):
        a = store.query(0, 0.5, 2.0)
        b = sstore.query(0, 0.5, 2.0)
        assert set(a.rids.tolist()) == set(b.rids.tolist())
        assert np.array_equal(np.sort(a.keys), np.sort(b.keys))


class TestOverlappingRunBytes:
    def test_empty(self):
        assert _overlapping_run_bytes([]) == 0

    def test_single(self):
        assert _overlapping_run_bytes([(0.0, 1.0, 100)]) == 0

    def test_disjoint(self):
        spans = [(0.0, 1.0, 100), (2.0, 3.0, 100)]
        assert _overlapping_run_bytes(spans) == 0

    def test_all_overlapping(self):
        spans = [(0.0, 2.0, 100), (1.0, 3.0, 200)]
        assert _overlapping_run_bytes(spans) == 300

    def test_mixed(self):
        spans = [(0.0, 2.0, 100), (1.0, 3.0, 200), (10.0, 11.0, 400)]
        assert _overlapping_run_bytes(spans) == 300

    def test_touching_counts_as_overlap(self):
        spans = [(0.0, 1.0, 100), (1.0, 2.0, 200)]
        assert _overlapping_run_bytes(spans) == 300

    def test_chain_overlap(self):
        spans = [(0.0, 2.0, 1), (1.5, 4.0, 2), (3.5, 6.0, 4)]
        assert _overlapping_run_bytes(spans) == 7


def _pairwise_overlapping_run_bytes(spans):
    """The n x n definition the sort-based version must agree with."""
    total = 0
    for i, (lo_i, hi_i, length) in enumerate(spans):
        if any(
            lo_i <= hi_j and hi_i >= lo_j
            for j, (lo_j, hi_j, _) in enumerate(spans)
            if j != i
        ):
            total += length
    return total


#: a coarse key grid, so equal kmin (ties), touching endpoints and
#: zero-width ranges all come up often
_KEY = st.integers(0, 12).map(lambda k: k / 4.0)
_SPAN = st.tuples(_KEY, _KEY, st.integers(0, 1 << 40)).map(
    lambda t: (min(t[0], t[1]), max(t[0], t[1]), t[2])
)


@given(spans=st.lists(_SPAN, max_size=24))
@example(spans=[])
@example(spans=[(1.0, 1.0, 5)])
@example(spans=[(1.0, 1.0, 5), (1.0, 1.0, 7)])  # two zero-width, same key
@example(spans=[(0.0, 1.0, 5), (1.0, 1.0, 7)])  # zero-width on an endpoint
@example(spans=[(0.0, 9.0, 1), (1.0, 2.0, 2), (3.0, 4.0, 4)])  # covered, not adjacent
@example(spans=[(0.0, 1.0, 3), (1.0, 2.0, 5)])  # touching endpoints
@example(spans=[(0.5, 2.0, 3), (0.5, 2.0, 5), (2.5, 3.0, 9)])  # duplicates
def test_overlapping_run_bytes_matches_pairwise_reference(spans):
    assert _overlapping_run_bytes(spans) == _pairwise_overlapping_run_bytes(spans)


_FRACTION = st.integers(0, 64).map(lambda k: k / 64.0)


@settings(max_examples=40, deadline=None)
@given(a=_FRACTION, b=_FRACTION, keys_only=st.booleans())
def test_query_cost_is_summed_from_its_logs(store, a, b, keys_only):
    """``_cost`` sums the probes in one pass: ``merge_bytes`` is the
    pairwise overlap of the query's candidate SSTs, and every measured
    field is the sum of ``explain``'s per-log rows."""
    kmin, kmax = store.key_range(0)
    lo, hi = sorted(kmin + (kmax - kmin) * f for f in (a, b))
    cost = store.query(0, lo, hi, keys_only=keys_only).cost
    candidates = [e for _, e in store.overlapping_entries(0, lo, hi)]
    assert cost.merge_bytes == _pairwise_overlapping_run_bytes(
        [(e.kmin, e.kmax, e.length) for e in candidates]
    )
    logs = store.explain(0, lo, hi, keys_only=keys_only).logs
    for field in ("ssts_read", "bytes_read", "read_requests", "candidate_bytes",
                  "key_chunks_read", "key_chunks_skipped", "records_scanned",
                  "records_matched"):
        assert getattr(cost, field) == sum(getattr(log, field) for log in logs)
    assert cost.ssts_read == len(candidates)
    assert cost.ssts_considered == len(store.entries(0))


class TestNoExecutorOnTheReadSide:
    def test_constructors_take_no_executor(self):
        params = inspect.signature(PartitionedStore.__init__).parameters
        assert "executor" not in params
        # nothing of the executor API is even imported by the engine
        for name in ("SerialExecutor", "resolve_executor"):
            assert not hasattr(engine_module, name)


class TestRecovery:
    def test_store_opens_torn_logs_with_recover(self, tmp_path):
        from repro.core.records import RecordBatch
        from repro.storage.log import LogWriter, log_name
        from repro.storage.manifest import ManifestError
        from repro.storage.snapshot import pin_snapshot

        path = tmp_path / log_name(0)
        w = LogWriter(path)
        w.append_batch(
            RecordBatch.from_keys(np.array([1.0, 2.0], np.float32),
                                  value_size=8), 0)
        w.flush_epoch(0)
        w.append_batch(
            RecordBatch.from_keys(np.array([3.0], np.float32), value_size=8),
            1)  # torn epoch
        w.close()
        with pytest.raises(ManifestError):
            PartitionedStore(tmp_path)
        with PartitionedStore(tmp_path, snapshot=pin_snapshot(tmp_path)) as store:
            assert store.epochs() == [0]
            assert store.total_records(0) == 2

    def test_failed_open_closes_the_readers_it_opened(
        self, tmp_path, monkeypatch
    ):
        # the store closes the readers it opened before the failure;
        # the collector would only warn about them later, in another test
        from repro.core.records import RecordBatch
        from repro.storage.log import LogReader, LogWriter, log_name

        for rank in range(3):
            with LogWriter(tmp_path / log_name(rank)) as w:
                w.append_batch(RecordBatch.from_keys(
                    np.array([float(rank)], np.float32), value_size=8), 0)
                w.flush_epoch(0)
        opened: list[LogReader] = []
        closed: list[LogReader] = []

        class FailsOnSecondLog(LogReader):
            def __init__(self, *args, **kwargs):
                if len(opened) == 1:
                    raise OSError("injected open failure")
                super().__init__(*args, **kwargs)
                opened.append(self)

            def close(self):
                closed.append(self)
                super().close()

        monkeypatch.setattr(engine_module, "LogReader", FailsOnSecondLog)
        with pytest.raises(OSError, match="injected open failure"):
            PartitionedStore(tmp_path)
        assert len(opened) == 1
        assert closed == opened


class TestMultiEpoch:
    def test_query_every_epoch(self, store, trace_keys, trace_rids):
        results = {e: store.query(e, 0.5, 2.0) for e in store.epochs()}
        assert sorted(results) == [0, 1]
        for epoch, res in results.items():
            keys, rids = trace_keys[epoch], trace_rids[epoch]
            mask = (keys >= 0.5) & (keys <= 2.0)
            assert set(res.rids.tolist()) == set(rids[mask].tolist())


@pytest.fixture(scope="module")
def unsorted_store(tmp_path_factory, carp_output, trace_streams):
    """The same records as ``carp_output``, written with ``sort_ssts=False``."""
    options = dataclasses.replace(carp_output["options"], sort_ssts=False)
    out = tmp_path_factory.mktemp("carp_unsorted")
    with CarpRun(len(trace_streams[0]), out, options) as run:
        for epoch, streams in trace_streams.items():
            run.ingest_epoch(epoch, streams)
    with PartitionedStore(out) as s:
        yield s


class TestUnsortedSSTs:
    """Unsorted SSTs find their rows by range mask, sorted ones by binary
    search; every answer is the same, byte for byte."""

    def test_same_response_digests_as_the_sorted_store(
        self, store, unsorted_store, trace_keys
    ):
        assert all(e.flags & FLAG_SORTED for _, e in store.entries())
        assert not any(e.flags & FLAG_SORTED for _, e in unsorted_store.entries())
        keys = np.sort(trace_keys[0])
        rng = np.random.default_rng(3)
        bounds = [(float(keys[0]), float(keys[-1])), (-np.inf, np.inf),
                  (float(keys[-1]) + 1, np.inf)]
        for width in (1, 20, 400, len(keys) // 3):
            for start in rng.integers(0, len(keys) - width, 4):
                bounds.append((float(keys[start]), float(keys[start + width])))
        for lo, hi in bounds:
            for keys_only in (False, True):
                request = QueryRequest(lo=lo, hi=hi, epoch=0, keys_only=keys_only)
                a, b = (
                    response_from_result(
                        request, "q", LIVE_TOKEN, s.query(0, lo, hi, keys_only)
                    )
                    for s in (store, unsorted_store)
                )
                assert a.digest() == b.digest(), (lo, hi, keys_only)
                # same candidates; only the value span a probe touches
                # may differ (first-to-last match when unsorted)
                assert a.cost is not None and b.cost is not None
                assert (a.cost.ssts_read, a.cost.records_scanned) == (
                    b.cost.ssts_read, b.cost.records_scanned)


class TestKeysOnly:
    def test_same_keys_less_io(self, store, trace_keys):
        full = store.query(0, 0.5, 2.0)
        ko = store.query(0, 0.5, 2.0, keys_only=True)
        assert np.array_equal(np.sort(full.keys), ko.keys)
        assert ko.cost.bytes_read < full.cost.bytes_read
        assert np.all(ko.rids == 0)

    def test_empty_range(self, store, trace_keys):
        hi = float(trace_keys[0].max())
        res = store.query(0, hi + 5, hi + 6, keys_only=True)
        assert len(res) == 0

    def test_counts_match_brute_force(self, store, trace_keys):
        keys = trace_keys[0]
        res = store.query(0, 1.0, 4.0, keys_only=True)
        assert len(res) == int(np.count_nonzero((keys >= 1.0) & (keys <= 4.0)))


class TestConcurrentClients:
    def test_multiple_stores_in_threads(self, carp_output, trace_keys,
                                        trace_rids):
        """Paper §V-D: query clients open logs read-only, so multiple
        concurrent clients are automatically supported — one store per
        client (a store holds per-file cursors and is not itself
        shareable across threads)."""
        from concurrent.futures import ThreadPoolExecutor

        keys, rids = trace_keys[0], trace_rids[0]

        def client(seed):
            rng = np.random.default_rng(seed)
            with PartitionedStore(carp_output["dir"]) as s:
                out = []
                for _ in range(5):
                    a, b = np.sort(rng.uniform(keys.min(), keys.max(), 2))
                    res = s.query(0, float(a), float(b))
                    mask = (keys >= a) & (keys <= b)
                    out.append(set(res.rids.tolist()) ==
                               set(rids[mask].tolist()))
                return all(out)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(client, range(4)))
        assert all(results)
