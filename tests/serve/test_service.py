"""QueryService: admission, fairness, single-flight cache, deadlines,
cross-backend byte-identity under concurrent ingest, and the
deterministic close-time observability merge."""

from __future__ import annotations

import dataclasses
import random
import re
import sys
import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.perf.serve import evict_requests
from repro.query import service as service_module
from repro.query.engine import LATENCY_BOUNDS, PartitionedStore
from repro.query.request import (
    STATUS_DEADLINE_EXCEEDED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    QueryRequest,
)
from repro.query.service import QueryService

from tests.serve.conftest import OPTIONS, TRACE, WIDE, streams

CLIENTS = 8


def _window(client: int, q: int, phase: int = 0) -> tuple[float, float]:
    """Distinct (client, q, phase) windows: no accidental cache sharing."""
    lo = 0.1 + client * 0.31 + q * 0.07 + phase * 0.011
    return lo, lo + 0.5


def _run_clients(service, per_client):
    responses = {}
    guard = threading.Lock()

    def loop(name, requests):
        mine = [service.query(r) for r in requests]
        with guard:
            responses[name] = mine

    threads = [
        threading.Thread(target=loop, args=(name, reqs))
        for name, reqs in per_client.items()
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return responses


def _count_opens(monkeypatch, after_open=None):
    """Record every store the service opens (``after_open`` runs after
    each construction, before the service sees the store)."""
    opened: list[PartitionedStore] = []
    original = service_module.PartitionedStore

    def counting(*args, **kwargs):
        store = original(*args, **kwargs)
        opened.append(store)  # list.append is atomic under the GIL
        if after_open is not None:
            after_open()
        return store

    monkeypatch.setattr(service_module, "PartitionedStore", counting)
    return opened


def _maps_closed(store) -> bool:
    return all(r._map is None or r._map.closed for r in store._readers)


class TestAdmission:
    def test_submit_and_result(self, db_dir):
        lo, hi = WIDE
        with QueryService(db_dir, workers=2) as service:
            handle = service.submit(QueryRequest(lo=lo, hi=hi))
            assert re.fullmatch(r"query-\d{6}", handle.request_id)
            resp = handle.result()
            assert resp.ok and resp.epoch == 1 and len(resp) > 0
            assert resp.request_id == handle.request_id
            assert resp.snapshot_token == service.snapshot.token

    def test_invalid_request_raises_at_submit(self, db_dir):
        with QueryService(db_dir, workers=1) as service:
            with pytest.raises(ValueError, match="empty query range"):
                service.submit(QueryRequest(lo=2.0, hi=1.0))

    def test_submit_after_close_raises(self, db_dir):
        service = QueryService(db_dir, workers=1)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(QueryRequest(lo=0.0, hi=1.0))
        service.close()  # idempotent

    def test_overload_rejects_immediately(self, db_dir):
        lo, hi = WIDE
        service = QueryService(
            db_dir, workers=1, max_pending=2, autostart=False
        )
        admitted = [
            service.submit(QueryRequest(lo=lo + i, hi=hi)) for i in range(2)
        ]
        overflow = service.submit(QueryRequest(lo=lo + 9.0, hi=hi))
        # rejected synchronously, while the admitted two are still queued
        assert overflow.done()
        resp = overflow.result()
        assert resp.status == STATUS_REJECTED
        assert resp.epoch == -1 and len(resp) == 0
        assert "admission queue full" in resp.detail
        assert not admitted[0].done()
        service.close()  # a paused service still answers what it admitted
        assert all(h.result().ok for h in admitted)
        stats = service.stats
        assert stats.submitted == 3
        assert stats.rejected == 1 and stats.ok == 2

    def test_result_timeout_on_paused_service(self, db_dir):
        service = QueryService(db_dir, workers=1, autostart=False)
        handle = service.submit(QueryRequest(lo=WIDE[0], hi=WIDE[1]))
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.05)
        service.close()
        assert handle.result().ok

    def test_drain_waits_for_all_admitted(self, db_dir):
        lo, hi = WIDE
        with QueryService(db_dir, workers=2) as service:
            handles = [
                service.submit(QueryRequest(lo=lo + i, hi=hi))
                for i in range(6)
            ]
            service.drain()
            assert all(h.done() for h in handles)


class TestFairness:
    def test_round_robin_interleaves_a_hog(self, db_dir):
        """One victim request behind a 6-deep hog backlog is served
        second, not seventh: dispatch is round-robin per client."""
        lo, hi = WIDE
        service = QueryService(db_dir, workers=1, autostart=False)
        for i in range(6):
            service.submit(
                QueryRequest(lo=lo + i, hi=hi, client="hog")
            )
        victim = service.submit(
            QueryRequest(lo=lo, hi=hi, client="victim")
        )
        service.close()  # drains with the single worker
        assert victim.result().ok
        order = [client for _, client, _ in service.served_log]
        assert order[0] == "hog"
        assert order[1] == "victim"
        assert order[2:] == ["hog"] * 5


class TestCache:
    def test_single_flight_coalesces_duplicates(self, db_dir):
        """Five concurrent identical requests: exactly one engine
        execution, whatever the worker timing."""
        lo, hi = WIDE
        service = QueryService(db_dir, workers=3, autostart=False)
        handles = [
            service.submit(QueryRequest(lo=lo, hi=hi)) for _ in range(5)
        ]
        service.start()
        responses = [h.result() for h in handles]
        service.close()
        assert all(r.ok for r in responses)
        assert len({r.payload() for r in responses}) == 1
        assert sum(1 for r in responses if not r.cached) == 1
        stats = service.stats
        assert stats.cache_misses == 1 and stats.cache_hits == 4
        assert stats.engine_queries == 1

    def test_eviction_keeps_cache_bounded(self, db_dir):
        """Equal refill costs and one use each: oldest evicted first."""
        cheap = [QueryRequest(lo=lo, hi=lo + 0.5) for lo in (1.0, 2.0, 3.0, 4.0)]
        with QueryService(db_dir, workers=1, cache_capacity=2) as service:
            costs = set()
            for request in cheap:
                response = service.query(request)
                assert response.ok and not response.cached
                costs.add(response.cost.bytes_read)
                assert len(service._cache) <= 2
            assert len(costs) == 1 and costs != {0}
            # the two newest stayed; the two oldest were the victims
            assert service.query(cheap[3]).cached
            assert service.query(cheap[2]).cached
            assert not service.query(cheap[0]).cached
            assert len(service._cache) == 2
            assert service.stats.engine_queries == 5

    def test_expensive_entry_outlives_cheaper_ones(self, db_dir):
        """The entry that is costliest to refill survives newer, cheaper
        ones (LRU would drop it first), but not forever: each eviction
        raises the age every later priority starts from."""
        costly = QueryRequest(lo=0.0, hi=0.5)
        cheap = [QueryRequest(lo=lo, hi=lo + 0.5) for lo in (1.0, 2.0, 3.0)]
        with QueryService(db_dir, workers=1, cache_capacity=2) as service:
            expensive = service.query(costly)
            for request in cheap:
                response = service.query(request)
                assert response.cost.bytes_read < expensive.cost.bytes_read
            assert service.query(costly).cached
            # one-use cheap entries keep arriving: the unasked-for costly
            # result ages out after finitely many of them
            for k in range(100):
                lo = 1.0 + 0.07 * k
                service.query(QueryRequest(lo=lo, hi=lo + 0.05))
                if all(key[2] != costly.lo for key in service._cache):
                    break
            else:
                pytest.fail("the costly entry never aged out")
            assert not service.query(costly).cached

    def test_hit_raises_priority(self, db_dir):
        """Of two equal-cost entries, the one hit more often stays, even
        when the other was used more recently."""
        a, b, c = (QueryRequest(lo=lo, hi=lo + 0.5) for lo in (1.0, 2.0, 3.0))
        with QueryService(db_dir, workers=1, cache_capacity=2) as service:
            first, second = service.query(a), service.query(b)
            assert first.cost.bytes_read == second.cost.bytes_read
            assert service.query(a).cached and service.query(a).cached
            assert service.query(b).cached  # b is now the most recent
            assert not service.query(c).cached  # evicts one of a, b
            assert service.query(a).cached
            assert not service.query(b).cached

    def test_refill_bytes_beat_an_lru_over_the_same_draw(self, db_dir):
        """Oracle: replay the perf workload's seeded Zipf draw through
        one worker, then an exact-key LRU of the same capacity over the
        same keys, each priced by one engine execution; the service
        refills no more bytes."""
        with PartitionedStore(db_dir) as store:
            lo, hi = store.key_range(0)
            draw = evict_requests(lo, hi, seed=3)
            bytes_of = {
                key: store.query(0, *key).cost.bytes_read
                for key in {(r.lo, r.hi) for r in draw}
            }
        capacity = 6
        refilled = 0
        with QueryService(
            db_dir, workers=1, cache_capacity=capacity
        ) as service:
            for request in draw:
                response = service.query(request)
                assert response.ok
                if not response.cached:
                    refilled += response.cost.bytes_read
        lru: OrderedDict[tuple[float, float], None] = OrderedDict()
        lru_refilled = 0
        for request in draw:
            key = (request.lo, request.hi)
            if key in lru:
                lru.move_to_end(key)
                continue
            lru_refilled += bytes_of[key]
            lru[key] = None
            if len(lru) > capacity:
                lru.popitem(last=False)
        assert refilled < lru_refilled

    def test_uncommitted_epoch_is_an_error_response(self, db_dir):
        with QueryService(db_dir, workers=1) as service:
            resp = service.query(
                QueryRequest(lo=WIDE[0], hi=WIDE[1], epoch=7)
            )
            assert resp.status == STATUS_ERROR
            assert "not committed" in resp.detail
            assert service.stats.errors == 1
            # errors never enter the cache or the hit/miss counters
            assert service.stats.cache_misses == 0


#: Distinct keys whose refill costs differ by up to ~15x.
_POLICY_POOL = [
    QueryRequest(lo=lo, hi=hi, epoch=epoch, keys_only=keys_only)
    for lo, hi in ((0.0, 0.5), (0.08, 0.48), (1.0, 1.5), (3.0, 3.5))
    for epoch in (0, 1)
    for keys_only in (False, True)
]


class _CheckedService(QueryService):
    """Records every breach of the cache bounds, checked around each
    eviction pass (lock held): at most ``cache_capacity`` completed
    entries, and no in-flight slot evicted."""

    def __init__(self, *args, **kwargs):
        self.breaches: list[str] = []
        super().__init__(*args, **kwargs)

    def _evict_locked(self):
        in_flight = {k for k, s in self._cache.items() if s.result is None}
        super()._evict_locked()
        if not in_flight <= self._cache.keys():
            self.breaches.append("evicted an in-flight slot")
        completed = sum(1 for s in self._cache.values() if s.result is not None)
        if completed > self._cache_capacity:
            self.breaches.append(f"{completed} completed entries cached")


@pytest.fixture(scope="module")
def replay_session(tmp_path_factory):
    """An open session over two committed epochs, for serial replays."""
    with Session(
        TRACE.nranks, tmp_path_factory.mktemp("replay") / "db", OPTIONS
    ) as session:
        session.ingest_epoch(0, streams(0))
        session.ingest_epoch(1, streams(1))
        yield session


class TestCacheProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        capacity=st.integers(1, 4),
        workers=st.integers(1, 3),
        bursts=st.lists(
            st.lists(st.integers(0, len(_POLICY_POOL) - 1), min_size=1,
                     max_size=6),
            min_size=1, max_size=8,
        ),
    )
    def test_bounded_and_replay_identical(
        self, replay_session, capacity, workers, bursts
    ):
        """Bursts of concurrent submits (duplicates become followers):
        the cache never holds more than ``capacity`` completed entries
        beside its in-flight ones, never evicts an in-flight slot, and
        every payload equals a serial ``Session.query`` replay."""
        service = _CheckedService(
            replay_session.out_dir, workers=workers, cache_capacity=capacity
        )
        try:
            for burst in bursts:
                handles = [service.submit(_POLICY_POOL[i]) for i in burst]
                for index, handle in zip(burst, handles):
                    response = handle.result(TIMEOUT)
                    assert response.ok
                    replay = replay_session.query(_POLICY_POOL[index])
                    assert response.payload() == replay.payload()
        finally:
            service.close()
        assert service.breaches == []
        stats = service.stats
        assert stats.cache_hits + stats.cache_misses == sum(map(len, bursts))


class TestDeadline:
    def test_deadline_exceeded_is_deterministic(self, db_dir):
        with QueryService(db_dir, workers=2) as service:
            timed_out = [
                service.query(
                    QueryRequest(lo=WIDE[0], hi=WIDE[1], deadline=1e-9)
                )
                for _ in range(3)
            ]
            fine = service.query(
                QueryRequest(lo=WIDE[0], hi=WIDE[1], deadline=1e9)
            )
        assert fine.ok and len(fine) > 0
        for resp in timed_out:
            assert resp.status == STATUS_DEADLINE_EXCEEDED
            assert len(resp) == 0
            assert resp.cost is not None and resp.cost.latency > 1e-9
        assert service.stats.deadline_exceeded == 3


class TestInvalidation:
    def test_epoch_commit_advances_the_snapshot(self, tmp_path):
        lo, hi = WIDE
        with Session(TRACE.nranks, tmp_path / "db", OPTIONS) as session:
            session.ingest_epoch(0, streams(0))
            service = session.serve(workers=2)
            before = service.query(QueryRequest(lo=lo, hi=hi))
            assert before.epoch == 0
            token_before = service.snapshot.token
            session.ingest_epoch(1, streams(1))
            after = service.query(QueryRequest(lo=lo, hi=hi))
            assert after.epoch == 1
            assert service.snapshot.token != token_before
            assert after.snapshot_token != before.snapshot_token
            # the same epoch-0 answer is still servable and identical
            # (its cache key carried the old token, so this re-executes)
            again = service.query(QueryRequest(lo=lo, hi=hi, epoch=0))
            assert again.payload() == before.payload()
            assert service.stats.invalidations == 1


class TestConcurrentIngestIdentity:
    """The acceptance criterion: a mixed workload — ingest interleaved
    with >= 8 concurrent clients — returns byte-identical payloads vs
    a serial post-hoc run against the matching committed epochs."""

    def test_payloads_match_serial_replay(self, tmp_path, monkeypatch):
        opened = _count_opens(monkeypatch)
        with Session(TRACE.nranks, tmp_path, OPTIONS) as session:
            session.ingest_epoch(0, streams(0))
            service = session.serve(workers=3)
            ingest = threading.Thread(
                target=session.ingest_epoch, args=(1, streams(1))
            )
            ingest.start()
            per_client = {
                f"client-{c}": [
                    QueryRequest(
                        lo=_window(c, q)[0], hi=_window(c, q)[1],
                        epoch=0, client=f"client-{c}",
                    )
                    for q in range(3)
                ]
                for c in range(CLIENTS)
            }
            responses = _run_clients(service, per_client)
            ingest.join()
            service.close()
            # the re-pin and the service's close left no map open
            assert all(_maps_closed(store) for store in opened)
            flat = [r for rs in responses.values() for r in rs]
            # exactly one store open per pin that ran a fill
            assert len(opened) == len({r.snapshot_token for r in flat})
            assert len(flat) == CLIENTS * 3
            assert all(r.ok for r in flat)
            # serial post-hoc replay through the session (epoch 0
            # bytes are immutable, so "the matching committed
            # snapshot" is simply the epoch itself)
            for resp in flat:
                replay = session.query(
                    QueryRequest(lo=resp.lo, hi=resp.hi, epoch=0)
                )
                assert resp.payload() == replay.payload()


class TestObservabilityMerge:
    def _served_session(self, out_dir):
        """A deterministic served pattern with a known hit/miss split:
        per client, 2 distinct misses + 1 repeat hit (closed loop)."""
        with Session(
            TRACE.nranks, out_dir, OPTIONS, record=True
        ) as session:
            session.ingest_epoch(0, streams(0))
            service = session.serve(workers=3)
            per_client = {}
            for c in range(CLIENTS):
                reqs = [
                    QueryRequest(
                        lo=_window(c, q)[0], hi=_window(c, q)[1],
                        client=f"client-{c:02d}",
                    )
                    for q in range(2)
                ]
                per_client[f"client-{c:02d}"] = reqs + [reqs[0]]
            responses = _run_clients(service, per_client)
            service.close()
            return session, service, responses

    def test_counters_reconcile_exactly_with_engine_stats(self, tmp_path):
        session, service, _ = self._served_session(tmp_path / "db")
        stats = service.stats
        assert stats.submitted == CLIENTS * 3
        assert stats.ok == CLIENTS * 3
        assert stats.cache_misses == CLIENTS * 2
        assert stats.cache_hits == CLIENTS
        # misses are engine executions, nothing else is
        assert stats.engine_queries == stats.cache_misses
        metrics = session.obs.metrics
        # the merged engine histogram holds exactly one observation per
        # engine execution; the serve histogram one per answered request
        assert metrics.histogram(
            "query.latency", LATENCY_BOUNDS
        ).count == stats.engine_queries
        assert metrics.histogram(
            "serve.latency", LATENCY_BOUNDS
        ).count == stats.ok
        counters = metrics.snapshot()["counters"]
        assert counters["serve.requests"] == stats.submitted
        assert counters["serve.ok"] == stats.ok
        assert counters["serve.cache_hits"] == stats.cache_hits
        assert counters["serve.cache_misses"] == stats.cache_misses
        assert counters["serve.rejected"] == 0
        assert counters["serve.errors"] == 0
        # merged worker counters stay integers (render like serial runs)
        assert isinstance(counters["query.read_requests"], int)

    def test_request_ids_flow_into_the_merged_trace(self, tmp_path):
        session, service, responses = self._served_session(tmp_path / "db")
        ids = {
            r.request_id for rs in responses.values() for r in rs
        }
        assert len(ids) == CLIENTS * 3
        assert all(re.fullmatch(r"query-\d{6}", i) for i in ids)
        events = session.obs.tracer.to_doc()["traceEvents"]
        serve_spans = [
            e for e in events
            if e.get("name") == "serve"
            and isinstance(e.get("args"), dict)
        ]
        assert {e["args"]["request"] for e in serve_spans} == ids
        by_id = {e["args"]["request"]: e["args"] for e in serve_spans}
        for rs in responses.values():
            for r in rs:
                assert by_id[r.request_id]["status"] == STATUS_OK
                assert by_id[r.request_id]["cached"] == r.cached

    def test_merge_is_interleaving_independent(self, tmp_path):
        """Two runs of the same served pattern produce the same merged
        serve spans and counters, whatever the worker timing was.

        Request ids are deliberately left out of the fingerprint: they
        are minted in admission order, which *is* submission-
        interleaving dependent; everything the merge keys on
        ``(client, sequence)`` — timeline, duration, cache flag,
        window — must not be."""

        def fingerprint(out_dir):
            session, service, _ = self._served_session(out_dir)
            events = session.obs.tracer.to_doc()["traceEvents"]
            spans = sorted(
                (e["args"]["client"], e.get("ts"), e.get("dur"),
                 e["args"]["cached"], e["args"]["status"],
                 e["args"]["lo"], e["args"]["hi"])
                for e in events
                if e.get("name") == "serve"
                and isinstance(e.get("args"), dict)
            )
            counters = session.obs.metrics.snapshot()["counters"]
            return spans, {
                k: v for k, v in counters.items()
                if k.startswith(("serve.", "query."))
            }

        assert fingerprint(tmp_path / "a") == fingerprint(tmp_path / "b")


class TestExplainIds:
    def test_explain_mints_traceable_request_ids(self, tmp_path):
        lo, hi = WIDE
        with Session(
            TRACE.nranks, tmp_path / "db", OPTIONS, record=True
        ) as session:
            session.ingest_epoch(0, streams(0))
            report = session.explain(QueryRequest(lo=lo, hi=hi))
            resp = session.query(QueryRequest(lo=lo, hi=hi))
            # EXPLAIN reconciles exactly against the executed cost
            assert resp.cost is not None
            assert report.cost == resp.cost
            events = session.obs.tracer.to_doc()["traceEvents"]
            explain_spans = [
                e for e in events
                if e.get("name") == "explain"
                and isinstance(e.get("args"), dict)
            ]
            assert [e["args"]["request"] for e in explain_spans] == [
                "explain-000001"
            ]


class TestByteAccounting:
    def test_response_bytes_are_the_spans_the_workers_touched(
        self, tmp_path, monkeypatch
    ):
        """Σ ``response.cost.bytes_read`` == Σ touched span lengths.

        Two serve workers answer interleaved requests; every reader
        they open records its spans into one shared list.  Per-probe
        accounting is summed from what each read call returns, so the
        responses account for exactly the bytes touched — no more (a
        probe never sees another thread's reads), no fewer.
        """
        from repro.storage.log import LogReader

        touched: list[tuple[int, int]] = []
        opened = LogReader.__init__

        def recording_init(self, *args, **kwargs):
            opened(self, *args, **kwargs)
            self.touched = touched  # list.append is atomic under the GIL

        monkeypatch.setattr(LogReader, "__init__", recording_init)
        with Session(TRACE.nranks, tmp_path, OPTIONS) as session:
            session.ingest_epoch(0, streams(0))
            service = session.serve(workers=2)
            responses = _run_clients(service, {
                f"client-{c}": [
                    QueryRequest(lo=lo, hi=hi, client=f"client-{c}",
                                 keys_only=bool(q % 2))
                    for q in range(6)
                    for lo, hi in [_window(c, q)]
                ]
                for c in range(4)
            })
            service.close()
        flat = [r for mine in responses.values() for r in mine]
        assert len(flat) == 24 and all(r.ok and not r.cached for r in flat)
        assert sum(r.cost.bytes_read for r in flat) == sum(
            length for _offset, length in touched
        )
        assert sum(r.cost.read_requests for r in flat) == len(touched)
        assert any(r.cost.bytes_read < r.cost.candidate_bytes for r in flat)


# ------------------------------------------------------------------
# The submit-side contract (docs/SERVING.md, "What is contractual"):
# hits, followers and unknown epochs are answered inside submit();
# only misses pass admission and reach a worker.

TIMEOUT = 20.0


def _drains(service, timeout=TIMEOUT):
    """``drain()`` has no timeout of its own: bound it with a thread."""
    waiter = threading.Thread(target=service.drain, daemon=True)
    waiter.start()
    waiter.join(timeout)
    return not waiter.is_alive()


class _Gate:
    """Patches ``PartitionedStore.query``: calls whose ``lo`` is held
    block inside the engine until ``open()``; ``fail`` raises instead."""

    def __init__(self, monkeypatch, hold=(), fail=None):
        self.entered = threading.Event()
        self._release = threading.Event()
        self._guard = threading.Lock()
        self.calls = 0  # engine executions, as the engine saw them
        original = PartitionedStore.query
        gate = self

        def query(store, epoch, lo, hi, **kwargs):
            with gate._guard:
                gate.calls += 1
                call = gate.calls
            if lo in hold:
                gate.entered.set()
                assert gate._release.wait(TIMEOUT)
            if fail is not None and fail(call):
                raise OSError("injected read failure")
            return original(store, epoch, lo, hi, **kwargs)

        monkeypatch.setattr(PartitionedStore, "query", query)

    def open(self):
        self._release.set()


def _req(i, **kwargs):
    """Distinct windows by index (no accidental cache sharing)."""
    lo = 0.02 + 0.06 * i
    return QueryRequest(lo=lo, hi=lo + 0.4, **kwargs)


class TestSubmitSideCache:
    def test_blocked_worker_does_not_block_a_hit(self, db_dir, monkeypatch):
        gate = _Gate(monkeypatch, hold={_req(1).lo})
        with QueryService(db_dir, workers=1) as service:
            assert service.submit(_req(0)).result(TIMEOUT).ok
            slow = service.submit(_req(1))
            assert gate.entered.wait(TIMEOUT)
            # the only worker is inside the miss; the hit never needs it
            hit = service.submit(_req(0))
            assert hit.done() and not slow.done()
            assert hit.result(0).ok and hit.result(0).cached
            gate.open()
            assert slow.result(TIMEOUT).ok

    def test_followers_take_no_admission_slot(self, db_dir):
        service = QueryService(
            db_dir, workers=2, max_pending=1, autostart=False
        )
        handles = [service.submit(_req(0)) for _ in range(5)]
        assert not any(h.done() for h in handles)
        assert service.stats.rejected == 0 and service.stats.pending == 1
        service.start()
        responses = [h.result(TIMEOUT) for h in handles]
        service.close()
        assert [r.cached for r in responses] == [False] + [True] * 4
        assert len({r.payload() for r in responses}) == 1
        stats = service.stats
        assert stats.cache_misses == 1 and stats.cache_hits == 4
        assert stats.engine_queries == 1
        # the owner resolves first, its followers directly after it in
        # attach order
        assert [rid for rid, _, _ in service.served_log] == [
            h.request_id for h in handles
        ]

    def test_a_hit_passes_a_full_queue(self, db_dir, monkeypatch):
        gate = _Gate(monkeypatch, hold={_req(1).lo})
        with QueryService(db_dir, workers=1, max_pending=2) as service:
            assert service.submit(_req(0)).result(TIMEOUT).ok
            held = service.submit(_req(1))
            assert gate.entered.wait(TIMEOUT)
            queued = [service.submit(_req(i)) for i in (2, 3)]
            overflow = service.submit(_req(4))
            assert overflow.result(0).status == STATUS_REJECTED
            # max_pending bounds queued *misses*: a cached range, a
            # follower and an unknown epoch are all still answered
            hit = service.submit(_req(0))
            assert hit.done() and hit.result(0).ok and hit.result(0).cached
            follower = service.submit(_req(2))
            unknown = service.submit(_req(5, epoch=7))
            assert unknown.result(0).status == STATUS_ERROR
            assert service.stats.rejected == 1
            gate.open()
            assert all(h.result(TIMEOUT).ok for h in [held, *queued])
            assert follower.result(TIMEOUT).cached

    def test_pin_is_bound_at_admission(self, tmp_path):
        lo, hi = WIDE
        with Session(TRACE.nranks, tmp_path / "db", OPTIONS) as session:
            session.ingest_epoch(0, streams(0))
            service = session.serve(workers=1, autostart=False)
            token = service.snapshot.token
            queued = service.submit(QueryRequest(lo=lo, hi=hi))
            session.ingest_epoch(1, streams(1))  # re-pins the service
            assert service.snapshot.token != token
            service.start()
            before = queued.result(TIMEOUT)
            after = service.submit(QueryRequest(lo=lo, hi=hi)).result(TIMEOUT)
            assert before.ok and after.ok
            assert (before.epoch, before.snapshot_token) == (0, token)
            assert after.epoch == 1
            assert after.snapshot_token == service.snapshot.token
            replay = session.query(QueryRequest(lo=lo, hi=hi, epoch=0))
            assert before.payload() == replay.payload()


class TestFailedFills:
    def test_store_open_failure_is_an_error_response(
        self, db_dir, monkeypatch
    ):
        """A store that fails to open costs its request, not the worker."""
        opened = service_module.PartitionedStore
        failures = iter([OSError("injected open failure")])

        def flaky_open(*args, **kwargs):
            for exc in failures:
                raise exc
            return opened(*args, **kwargs)

        monkeypatch.setattr(service_module, "PartitionedStore", flaky_open)
        with QueryService(db_dir, workers=1) as service:
            first = service.submit(_req(0)).result(TIMEOUT)
            assert first.status == STATUS_ERROR
            assert "injected open failure" in first.detail
            assert service.submit(_req(1)).result(TIMEOUT).ok
            assert all(t.is_alive() for t in service._threads)
            assert _drains(service)
        assert service.stats.errors == 1 and service.stats.ok == 1

    def test_failed_fill_is_not_cached(self, db_dir, monkeypatch):
        gate = _Gate(monkeypatch, fail=lambda call: call == 1)
        with QueryService(db_dir, workers=1) as service:
            first = service.submit(_req(0)).result(TIMEOUT)
            assert first.status == STATUS_ERROR
            assert "OSError: injected read failure" in first.detail
            # the identical retry executes again instead of replaying
            # the error from the slot
            retry = service.submit(_req(0)).result(TIMEOUT)
            assert retry.ok and not retry.cached
            assert service.submit(_req(0)).result(TIMEOUT).cached
        stats = service.stats
        assert stats.errors == 1 and stats.engine_queries == 1
        assert stats.cache_misses == 1 and stats.cache_hits == 1
        assert gate.calls == 2

    def test_failed_fill_releases_followers(self, db_dir, monkeypatch):
        gate = _Gate(
            monkeypatch, hold={_req(0).lo}, fail=lambda call: True
        )
        service = QueryService(db_dir, workers=1)
        owner = service.submit(_req(0))
        assert gate.entered.wait(TIMEOUT)
        followers = [service.submit(_req(0)) for _ in range(3)]
        # attached to the in-flight slot, not queued behind it
        assert service.stats.pending == 0
        assert not any(h.done() for h in [owner, *followers])
        gate.open()
        responses = [h.result(TIMEOUT) for h in [owner, *followers]]
        assert all(r.status == STATUS_ERROR for r in responses)
        assert all("injected read failure" in r.detail for r in responses)
        assert _drains(service)
        assert all(t.is_alive() for t in service._threads)
        service.close()
        stats = service.stats
        assert stats.pending == 0 and service._active == 0
        assert stats.errors == 4 and stats.engine_queries == 0
        assert stats.cache_hits == 0 and stats.cache_misses == 0
        assert gate.calls == 1


class TestSharedStore:
    """One read store per pin, shared by every worker (docs/SERVING.md,
    "What is contractual", item 2)."""

    def test_every_worker_shares_one_store_per_pin(self, tmp_path,
                                                   monkeypatch):
        workers, pins = 3, 3
        opened = _count_opens(monkeypatch)
        # a held fill waits inside the engine until every worker holds
        # one, so each pin's held fills run on distinct workers
        held = {_req(1 + i).lo for i in range(workers)}
        barrier = threading.Barrier(workers, timeout=TIMEOUT)
        original = PartitionedStore.query

        def query(store, epoch, lo, hi, **kwargs):
            if lo in held:
                barrier.wait()
            return original(store, epoch, lo, hi, **kwargs)

        monkeypatch.setattr(PartitionedStore, "query", query)
        with Session(TRACE.nranks, tmp_path / "db", OPTIONS) as session:
            session.ingest_epoch(0, streams(0))
            service = session.serve(workers=workers)
            for pin in range(pins):
                if pin:
                    session.ingest_epoch(pin, streams(pin))
                # the first fill opens the pin's store ...
                assert service.query(_req(0)).ok
                # ... and a fill on every worker at once reads it
                handles = [service.submit(_req(1 + i)) for i in range(workers)]
                assert all(h.result(TIMEOUT).ok for h in handles)
            service.close()
            assert service.stats.invalidations == pins - 1
        assert len(opened) == pins
        assert all(_maps_closed(store) for store in opened)

    @pytest.mark.parametrize("followers", [0, 2])
    def test_superseded_store_closes_after_its_last_fill(
        self, tmp_path, monkeypatch, followers
    ):
        opened = _count_opens(monkeypatch)
        gate = _Gate(monkeypatch, hold={_req(1).lo})
        with Session(TRACE.nranks, tmp_path / "db", OPTIONS) as session:
            session.ingest_epoch(0, streams(0))
            service = session.serve(workers=2)
            owner = service.submit(_req(1))
            assert gate.entered.wait(TIMEOUT)
            waiting = [service.submit(_req(1)) for _ in range(followers)]
            [old] = opened
            session.ingest_epoch(1, streams(1))  # re-pins the service
            # the superseded pin still has a fill in flight
            assert not _maps_closed(old)
            assert service.submit(_req(2)).result(TIMEOUT).ok
            [_, current] = opened
            assert not _maps_closed(old)
            gate.open()
            responses = [h.result(TIMEOUT) for h in [owner, *waiting]]
            assert all(r.ok and r.epoch == 0 for r in responses)
            assert [r.cached for r in responses] == [False] + [True] * followers
            # the last fill closed its pin's store before answering
            assert _maps_closed(old)
            assert not _maps_closed(current)
            assert service.submit(_req(3)).result(TIMEOUT).ok
            assert len(opened) == 2 and not _maps_closed(current)
            service.close()
            assert _maps_closed(current)

    def test_invalidate_closes_a_superseded_store_with_no_fill(
        self, tmp_path, monkeypatch
    ):
        opened = _count_opens(monkeypatch)
        with Session(TRACE.nranks, tmp_path / "db", OPTIONS) as session:
            session.ingest_epoch(0, streams(0))
            service = session.serve(workers=2)
            assert service.query(_req(0)).ok
            [old] = opened
            assert not _maps_closed(old)
            session.ingest_epoch(1, streams(1))
            assert _maps_closed(old)
            # a pin that never ran a fill has no store to close
            session.ingest_epoch(2, streams(2))
            assert len(opened) == 1
            service.close()

    @staticmethod
    def _spy_on_open_waits(service) -> threading.Event:
        """An event set when a fill starts waiting on another's open."""
        waiting = threading.Event()
        cond = service._opened
        wait = cond.wait

        def spying_wait(timeout=None):
            waiting.set()
            return wait(timeout)

        cond.wait = spying_wait
        return waiting

    def test_racing_opens_publish_one_store(self, db_dir, monkeypatch):
        service = QueryService(db_dir, workers=2, autostart=False)
        waiting = self._spy_on_open_waits(service)

        def hold():
            # the first open lands only once the second fill waits on it
            assert waiting.wait(TIMEOUT)

        opened = _count_opens(monkeypatch, after_open=hold)
        handles = [service.submit(_req(i)) for i in range(2)]
        service.start()
        responses = [h.result(TIMEOUT) for h in handles]
        assert all(r.ok for r in responses)
        assert waiting.is_set()
        [store] = opened
        assert service._pin.store is store and not _maps_closed(store)
        service.close()
        assert _maps_closed(store)

    def test_waiting_fill_retries_a_failed_open(self, db_dir, monkeypatch):
        """The open fails for the fill that ran it; the fill that waited
        on it opens the store itself, once."""
        service = QueryService(db_dir, workers=2, autostart=False)
        waiting = self._spy_on_open_waits(service)
        original = service_module.PartitionedStore
        calls: list[int] = []

        def failing_first(*args, **kwargs):
            calls.append(len(calls))
            if len(calls) == 1:
                assert waiting.wait(TIMEOUT)
                raise OSError("injected open failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(service_module, "PartitionedStore", failing_first)
        handles = [service.submit(_req(i)) for i in range(2)]
        service.start()
        responses = [h.result(TIMEOUT) for h in handles]
        assert sorted(r.status for r in responses) == [STATUS_ERROR, STATUS_OK]
        [failed] = [r for r in responses if not r.ok]
        assert "injected open failure" in failed.detail
        assert len(calls) == 2
        assert service.submit(_req(2)).result(TIMEOUT).ok
        assert len(calls) == 2
        service.close()
        assert service.stats.errors == 1 and service.stats.ok == 2


class TestStress:
    def test_mixed_load_matches_serial_replay(self, tmp_path, monkeypatch):
        """Six closed-loop clients (three times the cores of the CI
        box) over a pool twice the cache, hot enough for hits, misses,
        evictions and concurrent duplicates: every payload equals a
        serial ``Session.query`` replay and the counters reconcile."""
        gate = _Gate(monkeypatch)
        opened = _count_opens(monkeypatch)
        pool = [
            _req(i, epoch=i % 2, keys_only=i % 3 == 0,
                 deadline=1e-9 if i == 5 else None)
            for i in range(16)
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with Session(TRACE.nranks, tmp_path / "db", OPTIONS) as session:
                session.ingest_epoch(0, streams(0))
                session.ingest_epoch(1, streams(1))
                service = session.serve(workers=3, cache_capacity=8)
                per_client = {}
                for c in range(6):
                    rng = random.Random(c)
                    per_client[f"client-{c}"] = [
                        dataclasses.replace(
                            rng.choice(pool), client=f"client-{c}"
                        )
                        for _ in range(80)
                    ]
                responses = {}

                def loop(name, requests):
                    responses[name] = [
                        service.submit(r).result(TIMEOUT) for r in requests
                    ]

                threads = [
                    threading.Thread(target=loop, args=item, daemon=True)
                    for item in per_client.items()
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(4 * TIMEOUT)
                assert not any(t.is_alive() for t in threads)
                assert _drains(service)
                assert all(t.is_alive() for t in service._threads)
                service.close()
                # one pin, so one store, closed with the service
                assert len(opened) == 1 and _maps_closed(opened[0])
                stats = service.stats
                flat = [r for name in per_client for r in responses[name]]
                assert len(flat) == stats.submitted == stats.served == 480
                assert stats.errors == 0 and stats.rejected == 0
                assert stats.pending == 0 and service._active == 0
                assert stats.deadline_exceeded > 0
                assert stats.cache_hits > 0 and stats.cache_misses > 16
                assert stats.cache_hits + stats.cache_misses == (
                    stats.ok + stats.deadline_exceeded
                )
                # counted three ways: by the service, by the engine,
                # by the clients
                assert stats.cache_misses == stats.engine_queries
                assert stats.engine_queries == gate.calls == sum(
                    1 for r in flat if not r.cached
                )
                replayed = {}
                for resp in flat:
                    key = dataclasses.replace(resp.request, client="replay")
                    if key not in replayed:
                        replayed[key] = session.query(key).digest()
                    assert resp.digest() == replayed[key]
        finally:
            sys.setswitchinterval(switch)
