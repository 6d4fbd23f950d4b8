"""The serve plane: concurrent range queries over pinned snapshots.

:class:`QueryService` is the read-side front end behind
:meth:`repro.api.Session.serve`.  It admits typed
:class:`~repro.query.request.QueryRequest` objects from many clients
while ``ingest_epoch`` keeps appending, and answers each with a
:class:`~repro.query.request.QueryResponse` — concurrently, but with
*deterministic results*:

- **Snapshot isolation.**  Every request executes against the pinned
  :class:`~repro.storage.snapshot.Snapshot` that was current when it
  was submitted, so readers never see in-flight epochs; a live ingest
  only appends after the pinned commit points (``docs/SERVING.md``).
  The session re-pins the service on each epoch commit
  (:meth:`invalidate`).
- **Single-flight result cache, looked up by the caller.**  A bounded
  map keyed on ``(snapshot token, epoch, lo, hi, keys_only)`` that
  evicts by GreedyDual-Size-Frequency (Cao & Irani, USITS 1997): the
  victim is the completed entry that is cheapest to refill, weighted
  by how often it was asked for, not the least recently used one
  (:meth:`QueryService._evict_locked`).
  :meth:`QueryService.submit` binds the request to the current pin,
  resolves its epoch and looks the key up *on the submitting thread*:
  a completed entry is answered right there (the handle is ``done()``
  before ``submit`` returns), so a slow miss costs its own requests,
  never the hits on every other range.  A request whose exact key
  misses is then answered from a completed entry of the same pin,
  epoch and ``keys_only=False`` whose range contains its own (the
  "semantic caching" of Dar et al., VLDB 1996): results are sorted by
  key with ties in a fixed order, so the rows of the sub-range are its
  exact answer.  Keys-only and deadline requests, and in-flight
  containers, are not eligible (:meth:`QueryService.submit` says
  why).  A key that is *in flight* takes the handle as a follower —
  it occupies neither an admission slot nor a worker, counts as a
  hit, and is resolved by the slot's owner when the fill lands.  One
  engine execution per key is what makes hit/miss counters — and the
  engine-side query counters they reconcile against — exact under any
  thread timing.  A fill that raises resolves owner and followers
  with a typed error and drops the key: errors are never cached.
- **Admission control.**  Only a true miss is admitted: it creates the
  slot it owns and queues it for a worker.  ``max_pending`` bounds
  those queued misses; past it a miss is answered
  :data:`~repro.query.request.STATUS_REJECTED` instead of queueing
  unboundedly.  Dispatch is round-robin *per client*, so a hog client
  issuing hundreds of misses cannot starve another client's single
  one.
- **Deterministic observability.**  Workers record into private
  ``Obs.deltas()`` stacks; at :meth:`close` the service folds them
  into the session stack in sorted ``(client, per-client sequence)``
  order — counters summed (exact ints), latency histograms *rebuilt*
  observation-by-observation (never merged as floats in thread order),
  span bundles replayed onto per-client serve timelines starting at
  zero.  The merged trace and metrics are therefore identical for a
  given served workload regardless of worker interleaving.

There is no executor on the read side: the workers share one store
per pin and probe inline through its mmap'd readers, and the service's
thread pool is the only concurrency.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.core.records import sorted_range
from repro.obs import NULL_OBS, Obs, RequestIdAllocator, SpanRecord
from repro.query.engine import LATENCY_BOUNDS, PartitionedStore, QueryResult
from repro.query.request import (
    STATUS_DEADLINE_EXCEEDED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    QueryRequest,
    QueryResponse,
    response_from_result,
)
from repro.sim.iomodel import IOModel
from repro.storage.snapshot import Snapshot, pin_snapshot

#: Statuses that represent an *answered* query (a payload was produced
#: from a cache slot); these are the responses the hit/miss counters
#: and the serve latency histogram cover.
_ANSWERED = (STATUS_OK, STATUS_DEADLINE_EXCEEDED)


#: Cache key: ``(snapshot token, epoch, lo, hi, keys_only)`` — also
#: everything a worker needs to run the engine for the slot.
_Key = tuple[str, int, float, float, bool]


class PendingQuery:
    """Handle for one submitted request.

    ``result()`` blocks until the service resolves the request.  A
    cache hit, a rejection and an unresolvable epoch are resolved
    inside :meth:`QueryService.submit`, so their handle is ``done()``
    on return.
    """

    __slots__ = ("request", "request_id", "_event", "_response")

    def __init__(self, request: QueryRequest, request_id: str) -> None:
        self.request = request
        #: Deterministic ``query-NNNNNN`` id (same allocator as
        #: :meth:`repro.api.Session.query`).
        self.request_id = request_id
        # only a handle that waits on a fill (a miss or a follower) is
        # given an event; one resolved at submit never needs it
        self._event: threading.Event | None = None
        self._response: QueryResponse | None = None

    def done(self) -> bool:
        return self._response is not None

    def result(self, timeout: float | None = None) -> QueryResponse:
        """The response, blocking until the service produces it."""
        if self._response is None:
            event = self._event
            assert event is not None
            if not event.wait(timeout):
                raise TimeoutError(
                    f"request {self.request_id} not resolved within {timeout}s"
                )
        response = self._response
        assert response is not None
        return response

    def _resolve(self, response: QueryResponse) -> None:
        self._response = response
        if self._event is not None:
            self._event.set()


class _Pin:
    """A pinned snapshot, the store its fills share, and ``fills``: the
    misses admitted under it and not yet resolved, which keep the store
    open.  The first fill that needs the store opens it (``opening`` is
    set meanwhile, and any other fill of the pin waits for that open);
    once the pin is superseded, its last fill closes it (or
    ``invalidate``, if none is in flight)."""

    __slots__ = ("snapshot", "store", "opening", "fills")

    def __init__(self, snapshot: Snapshot) -> None:
        self.snapshot = snapshot
        self.store: PartitionedStore | None = None
        self.opening = False
        self.fills = 0

    def retire(self) -> None:
        """Close the store, if one was opened (lock held)."""
        if self.store is not None:
            self.store.close()
            self.store = None


class _CacheSlot:
    """One single-flight cache entry.

    In flight (``result is None``) it is the unit of work a worker
    takes: the key to execute, the pin it was admitted under, and the
    handles to resolve when the fill lands — the owner first, then the
    followers in attach order.  Completed, hits read ``result`` and
    eviction reads ``priority``: ``age + uses × cost``, where ``cost``
    is the result's ``bytes_read`` (the bytes a refill would touch
    again) and ``uses`` counts the owner, its followers and every
    later hit.
    """

    __slots__ = ("key", "pin", "waiters", "result", "cost", "uses", "priority")

    def __init__(self, key: _Key, pin: _Pin, owner: PendingQuery) -> None:
        self.key = key
        self.pin = pin
        self.waiters = [owner]
        self.result: QueryResult | None = None
        self.cost = 0
        self.uses = 0
        self.priority = 0


def _unanswered(
    handle: PendingQuery, status: str, epoch: int, token: str, detail: str
) -> QueryResponse:
    """A response without a payload: a rejection or a typed error."""
    return QueryResponse(
        request=handle.request,
        request_id=handle.request_id,
        status=status,
        epoch=epoch,
        snapshot_token=token,
        detail=detail,
    )


@dataclass(frozen=True)
class _ServedRecord:
    """Bookkeeping for one resolved request, for the close-time merge."""

    client: str
    seq: int  # per-client resolution sequence (merge sort key)
    request_id: str
    status: str
    cached: bool
    executed: bool  # this request ran the engine (cache-slot owner)
    epoch: int
    lo: float
    hi: float
    keys_only: bool
    latency: float  # modeled engine latency (0.0 when never executed)
    spans: tuple[SpanRecord, ...]  # engine span bundle (owners only)


@dataclass(frozen=True)
class ServeStats:
    """Point-in-time counters of one :class:`QueryService`."""

    submitted: int
    served: int
    ok: int
    deadline_exceeded: int
    rejected: int
    errors: int
    cache_hits: int
    #: the hits answered by slicing a cached range that contains the
    #: request's (a subset of ``cache_hits``)
    contained_hits: int
    cache_misses: int
    invalidations: int
    engine_queries: int
    pending: int
    snapshot_token: str


class QueryService:
    """Thread-pool query front end over a pinned snapshot.

    Constructed by :meth:`repro.api.Session.serve`; standalone use
    only needs a log directory::

        with QueryService(out_dir) as svc:
            handle = svc.submit(QueryRequest(lo=0.0, hi=1.0))
            response = handle.result()

    ``autostart=False`` builds the service paused: misses queue up
    (admission control applies) until :meth:`start` — which is how the
    fairness tests make dispatch order observable.
    """

    def __init__(
        self,
        directory: Path | str,
        io: IOModel | None = None,
        obs: Obs | None = None,
        requests: RequestIdAllocator | None = None,
        snapshot: Snapshot | None = None,
        workers: int = 4,
        max_pending: int = 64,
        cache_capacity: int = 128,
        autostart: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        self.directory = Path(directory)
        self.io = io or IOModel()
        self.obs = obs if obs is not None else NULL_OBS
        self._requests = requests if requests is not None else RequestIdAllocator()
        self._workers = workers
        self._max_pending = max_pending
        self._cache_capacity = cache_capacity
        # one lock guards all mutable service state (queues, cache map,
        # counters, snapshot pointer) and is entered as ``_cond``; cache
        # *fills* happen outside it.  Three conditions share it so a
        # wake-up reaches who it is for: ``_cond`` is notified once per
        # queued miss (idle workers wait on it), ``_idle`` when nothing
        # is queued or running any more (``drain()`` waits on it), and
        # ``_opened`` when a store open ends (fills of that pin wait on
        # it meanwhile)
        lock = threading.Lock()
        self._cond = threading.Condition(lock)
        self._idle = threading.Condition(lock)
        self._opened = threading.Condition(lock)
        self._pin = _Pin(
            snapshot if snapshot is not None else pin_snapshot(self.directory)
        )
        self._queues: dict[str, deque[_CacheSlot]] = {}
        self._rr: list[str] = []
        self._rr_idx = 0
        self._pending = 0  # misses admitted, not yet dispatched
        self._active = 0  # misses dispatched, not yet resolved
        # insertion-ordered, so a priority tie evicts the oldest entry
        self._cache: dict[_Key, _CacheSlot] = {}
        # the GreedyDual "inflation" value: the priority of the last
        # victim, a floor under every completed entry's priority
        self._age = 0
        # running counters, updated where a request is recorded
        self._by_status = dict.fromkeys(
            (STATUS_OK, STATUS_DEADLINE_EXCEEDED, STATUS_REJECTED, STATUS_ERROR),
            0,
        )
        self._cache_hits = 0
        self._contained_hits = 0
        self._cache_misses = 0
        self._submitted = 0
        self._invalidations = 0
        self._served_log: list[tuple[str, str, str]] = []
        # per-request bookkeeping for the close-time merge; kept only
        # when there is an enabled obs stack to merge into
        self._records: list[_ServedRecord] = []
        self._client_seq: dict[str, int] = {}
        self._started = False
        self._draining = False
        self._closed = False
        self._threads: list[threading.Thread] = []
        self._worker_obs: list[Obs] = []
        if autostart:
            self.start()

    # --------------------------------------------------------- lifecycle

    def _spawn_workers(self) -> None:
        for idx in range(self._workers):
            # nothing reads a worker's spans or counters unless the
            # close-time merge has somewhere to put them
            worker_obs = Obs.deltas() if self.obs.enabled else NULL_OBS
            self._worker_obs.append(worker_obs)
            thread = threading.Thread(
                target=self._worker_loop,
                args=(worker_obs,),
                name=f"carp-serve-{idx}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def start(self) -> "QueryService":
        """Spawn the worker pool (idempotent)."""
        with self._cond:
            if self._closed:
                raise RuntimeError("service is closed")
            if self._started:
                return self
            self._started = True
        self._spawn_workers()
        return self

    def close(self) -> None:
        """Drain queued requests, stop workers, merge observability.

        Every admitted request is still answered; the merge into the
        session obs stack happens exactly once, here, in deterministic
        ``(client, sequence)`` order.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._draining = True
            was_started = self._started
            self._started = True
            self._cond.notify_all()
        # a paused service still owes answers to whatever was queued
        if not was_started:
            self._spawn_workers()
        for thread in self._threads:
            thread.join()
        # every fill has landed, so only the current pin's store is open
        with self._cond:
            self._pin.retire()
        self._merge()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # --------------------------------------------------------- admission

    def submit(self, request: QueryRequest) -> PendingQuery:
        """Submit one request; returns immediately with a handle.

        The request is bound to the current pin and looked up in the
        single-flight cache here, on the caller's thread.  A completed
        entry — the exact key's or, failing that, one of the same pin
        and epoch whose range contains the request's, sliced to it —
        an epoch the pin does not hold and a full miss queue
        (:data:`~repro.query.request.STATUS_REJECTED` — bounded
        admission instead of unbounded buffering) resolve the handle
        *now*; a key already in flight takes the handle as a follower;
        only a true miss is queued for a worker.
        """
        request.validate()
        with self._cond:
            if self._closed:
                raise RuntimeError("service is closed")
            handle = PendingQuery(
                request, self._requests.mint("query").request_id
            )
            self._submitted += 1
            pin = self._pin
            snap = pin.snapshot
            try:
                epoch = snap.resolve_epoch(request.epoch)
            except ValueError as exc:
                self._record_locked(
                    handle,
                    _unanswered(handle, STATUS_ERROR, -1, snap.token, str(exc)),
                )
                return handle
            key = (snap.token, epoch, request.lo, request.hi, request.keys_only)
            slot = self._cache.get(key)
            # keys-only results are sorted by an unstable np.sort, so the
            # order of -0.0 and +0.0 does not survive taking a subset; a
            # deadline's status must come from the request's own latency
            if slot is None and not request.keys_only and request.deadline is None:
                slot = self._container_locked(key)
            if slot is not None:
                result = slot.result
                if result is not None:
                    slot.uses += 1
                    slot.priority = self._age + slot.uses * slot.cost
                    if slot.key != key:
                        self._contained_hits += 1
                        rows = sorted_range(result.keys, request.lo, request.hi)
                        result = QueryResult(
                            request.lo, request.hi, epoch,
                            result.keys[rows], result.rids[rows], result.cost,
                        )
                    self._record_locked(
                        handle,
                        response_from_result(
                            request, handle.request_id, snap.token,
                            result, cached=True,
                        ),
                    )
                else:
                    handle._event = threading.Event()
                    slot.waiters.append(handle)
                return handle
            if self._pending >= self._max_pending:
                self._record_locked(
                    handle,
                    _unanswered(
                        handle, STATUS_REJECTED, -1, snap.token,
                        f"admission queue full ({self._max_pending} pending)",
                    ),
                )
                return handle
            handle._event = threading.Event()
            slot = _CacheSlot(key, pin, handle)
            pin.fills += 1
            self._cache[key] = slot
            self._evict_locked()
            queue = self._queues.get(request.client)
            if queue is None:
                queue = self._queues[request.client] = deque()
                self._rr.append(request.client)
            queue.append(slot)
            self._pending += 1
            self._cond.notify()
            return handle

    def _container_locked(self, key: _Key) -> _CacheSlot | None:
        """The first completed, not keys-only entry of ``key``'s pin and
        epoch whose range contains ``key``'s (lock held).

        An in-flight container does not count: a hit never waits on a
        fill it did not ask for, so the hit/miss split stays free of
        thread timing.
        """
        token, epoch, lo, hi, _keys_only = key
        for slot in self._cache.values():
            s_token, s_epoch, s_lo, s_hi, s_keys_only = slot.key
            if (
                slot.result is not None and s_token == token
                and s_epoch == epoch and not s_keys_only
                and s_lo <= lo and hi <= s_hi
            ):
                return slot
        return None

    def query(self, request: QueryRequest) -> QueryResponse:
        """Submit and wait: the one-call convenience path."""
        return self.submit(request).result()

    def drain(self) -> None:
        """Block until every admitted request has been resolved."""
        with self._cond:
            while self._pending > 0 or self._active > 0:
                self._idle.wait()

    # -------------------------------------------------------- snapshots

    @property
    def snapshot(self) -> Snapshot:
        with self._cond:
            return self._pin.snapshot

    def invalidate(self, snapshot: Snapshot | None = None) -> Snapshot:
        """Advance to a newer snapshot (called on each epoch commit).

        Re-pins the directory when no snapshot is given.  Requests
        submitted after this point execute — and cache — against the
        new pin; requests already admitted finish against the pin they
        were admitted under (their cache keys carry the old token, so
        the two never mix).  The superseded pin's store is closed here
        when no fill of it is in flight, else by its last fill.
        """
        snap = snapshot if snapshot is not None else pin_snapshot(self.directory)
        with self._cond:
            if snap.token != self._pin.snapshot.token:
                if self._pin.fills == 0:
                    self._pin.retire()
                self._pin = _Pin(snap)
                self._invalidations += 1
                # completed entries of older snapshots are unreachable
                # (keys carry the token) — drop them eagerly; in-flight
                # fills keep their slot until done
                for key in [
                    k for k, s in self._cache.items()
                    if s.result is not None and k[0] != snap.token
                ]:
                    del self._cache[key]
            return self._pin.snapshot

    # ------------------------------------------------------------ stats

    @property
    def stats(self) -> ServeStats:
        with self._cond:
            by_status = self._by_status
            return ServeStats(
                submitted=self._submitted,
                served=sum(by_status.values()),
                ok=by_status[STATUS_OK],
                deadline_exceeded=by_status[STATUS_DEADLINE_EXCEEDED],
                rejected=by_status[STATUS_REJECTED],
                errors=by_status[STATUS_ERROR],
                cache_hits=self._cache_hits,
                contained_hits=self._contained_hits,
                cache_misses=self._cache_misses,
                invalidations=self._invalidations,
                # single-flight: an answer that is not a hit is exactly
                # one successful engine execution, and nothing else is
                engine_queries=self._cache_misses,
                pending=self._pending,
                snapshot_token=self._pin.snapshot.token,
            )

    @property
    def served_log(self) -> tuple[tuple[str, str, str], ...]:
        """``(request id, client, status)`` in resolution order."""
        with self._cond:
            return tuple(self._served_log)

    def _record_locked(
        self,
        handle: PendingQuery,
        response: QueryResponse,
        spans: tuple[SpanRecord, ...] = (),
    ) -> None:
        """Count, log and resolve one request (lock held).

        The one place a request leaves the service, whichever thread
        answers it: counters, ``served_log`` and the per-client
        sequence all advance in resolution order.
        """
        request = handle.request
        status = response.status
        self._by_status[status] += 1
        # this request ran the engine: it owned a fill that succeeded
        executed = status in _ANSWERED and not response.cached
        if executed:
            self._cache_misses += 1
        elif status in _ANSWERED:
            self._cache_hits += 1
        self._served_log.append((handle.request_id, request.client, status))
        # a rejection was never admitted: it takes no per-client
        # sequence number and gets no serve span
        if self.obs.enabled and status != STATUS_REJECTED:
            seq = self._client_seq.get(request.client, 0)
            self._client_seq[request.client] = seq + 1
            self._records.append(
                _ServedRecord(
                    client=request.client,
                    seq=seq,
                    request_id=handle.request_id,
                    status=status,
                    cached=response.cached,
                    executed=executed,
                    epoch=response.epoch,
                    lo=request.lo,
                    hi=request.hi,
                    keys_only=request.keys_only,
                    latency=(
                        response.cost.latency
                        if response.cost is not None else 0.0
                    ),
                    spans=spans,
                )
            )
        handle._resolve(response)

    # ------------------------------------------------------ worker side

    def _next_locked(self) -> _CacheSlot | None:
        """Round-robin dispatch across per-client queues (lock held)."""
        n = len(self._rr)
        for step in range(n):
            client = self._rr[(self._rr_idx + step) % n]
            queue = self._queues[client]
            if queue:
                self._rr_idx = (self._rr_idx + step + 1) % n
                return queue.popleft()
        return None

    def _worker_loop(self, worker_obs: Obs) -> None:
        while True:
            with self._cond:
                slot = self._next_locked()
                while slot is None:
                    if self._draining:
                        return
                    self._cond.wait()
                    slot = self._next_locked()
                self._pending -= 1
                self._active += 1
            self._execute(slot, worker_obs)

    def _store_for(self, pin: _Pin) -> PartitionedStore:
        """The pin's shared store (the caller's fill keeps it open).

        Exactly one open per pin: a fill that finds the store being
        opened waits for that open.  If it raises, the opener's slot
        gets the error and a waiting fill retries the open.
        """
        store = pin.store
        if store is not None:
            return store
        with self._cond:
            while pin.opening:
                self._opened.wait()
            if pin.store is not None:
                return pin.store
            pin.opening = True
        # mapping every log and decoding its heads happens outside the
        # lock, so admission and the other pins' fills never wait on it
        opened: PartitionedStore | None = None
        try:
            opened = PartitionedStore(
                self.directory, io=self.io, snapshot=pin.snapshot
            )
            return opened
        finally:
            with self._cond:
                pin.store = opened  # still None if the open raised
                pin.opening = False
                self._opened.notify_all()

    def _execute(self, slot: _CacheSlot, worker_obs: Obs) -> None:
        """Fill ``slot``: run its key on the pin it was admitted under."""
        _token, epoch, lo, hi, keys_only = slot.key
        result: QueryResult | None = None
        error = ""
        # the worker must outlive anything the fill raises — opening
        # the store included — so the failure becomes this slot's
        # typed error response instead of a dead thread; the next fill
        # of the pin retries the open
        try:
            store = self._store_for(slot.pin)
            result = store.query(
                epoch, lo, hi, keys_only=keys_only, obs=worker_obs
            )
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        # the engine spans recorded for *this* fill (the worker handles
        # one slot at a time, so the drain is exact)
        self._finish(slot, result, error, tuple(worker_obs.tracer.drain()))

    def _finish(
        self,
        slot: _CacheSlot,
        result: QueryResult | None,
        error: str,
        spans: tuple[SpanRecord, ...],
    ) -> None:
        """Land a fill: resolve the owner, then its followers."""
        token, epoch = slot.key[:2]
        with self._cond:
            pin = slot.pin
            pin.fills -= 1
            if pin.fills == 0 and pin is not self._pin:
                pin.retire()  # a superseded pin's last fill
            if result is None:
                # errors are not cached: the next identical request
                # executes again
                del self._cache[slot.key]
            else:
                slot.cost = result.cost.bytes_read
                slot.uses = len(slot.waiters)
                slot.priority = self._age + slot.uses * slot.cost
            slot.result = result
            for position, handle in enumerate(slot.waiters):
                owner = position == 0
                if result is None:
                    response = _unanswered(
                        handle, STATUS_ERROR, epoch, token, error
                    )
                else:
                    response = response_from_result(
                        handle.request, handle.request_id, token, result,
                        cached=not owner,
                    )
                self._record_locked(
                    handle, response, spans if owner else ()
                )
            slot.waiters.clear()
            self._evict_locked()
            self._active -= 1
            if self._pending == 0 and self._active == 0:
                self._idle.notify_all()

    def _evict_locked(self) -> None:
        """Drop *completed* entries over capacity, cheapest first (lock held).

        GreedyDual-Size-Frequency with every entry one unit of
        capacity: the victim is the completed entry with the lowest
        ``priority`` (ties: the oldest insertion), and ``age`` rises to
        that priority, so entries that are not asked for again age out
        however costly they were.  A fresh, cheap entry (one use of a
        narrow range) can be the very next victim.  In-flight fills are
        never evicted: while every entry is one, the cache over-admits.
        """
        while len(self._cache) > self._cache_capacity:
            victim: _CacheSlot | None = None
            for slot in self._cache.values():
                if slot.result is not None and (
                    victim is None or slot.priority < victim.priority
                ):
                    victim = slot
            if victim is None:
                return
            self._age = victim.priority
            del self._cache[victim.key]

    # ------------------------------------------------------- obs merge

    def _merge(self) -> None:
        """Fold worker observability into the session stack, once.

        Runs single-threaded after every worker has joined.  Order is
        everything here: observations and span replays happen in
        sorted ``(client, per-client sequence)`` order — a total order
        fixed by the submission pattern, not by thread timing — so the
        merged registry and trace are backend- and race-independent.
        Worker-side ``query.latency`` histograms are deliberately
        *not* merged (float bucket totals summed in thread order would
        not be exact); the histogram is rebuilt from the per-request
        modeled latencies instead.
        """
        if not self.obs.enabled:
            return
        with self._cond:
            records = sorted(self._records, key=lambda r: (r.client, r.seq))
        stats = self.stats
        totals: dict[str, float] = {}
        for worker_obs in self._worker_obs:
            snap = worker_obs.metrics.snapshot()
            counters = snap.get("counters")
            assert isinstance(counters, dict)
            for name, value in counters.items():
                assert isinstance(value, (int, float))
                totals[str(name)] = totals.get(str(name), 0.0) + value
        metrics = self.obs.metrics
        for name in sorted(totals):
            value = totals[name]
            # engine counters are integer-valued; keep them ints so the
            # merged snapshot renders identically to a serial run's
            metrics.counter(name).add(
                int(value) if float(value).is_integer() else value
            )
        hist_query = metrics.histogram("query.latency", LATENCY_BOUNDS)
        hist_serve = metrics.histogram("serve.latency", LATENCY_BOUNDS)
        client_ts: dict[str, float] = {}
        for rec in records:
            if rec.executed:
                hist_query.observe(rec.latency)
            if rec.status in _ANSWERED:
                # a cache hit costs no engine time; it still counts as
                # a served request, at zero modeled latency
                hist_serve.observe(0.0 if rec.cached else rec.latency)
            track = self.obs.track("serve", rec.client)
            t0 = client_ts.get(rec.client, 0.0)
            dur = rec.latency if rec.executed else 0.0
            self.obs.tracer.complete(
                track, "serve", t0, dur,
                {
                    "request": rec.request_id, "client": rec.client,
                    "status": rec.status, "cached": rec.cached,
                    "epoch": rec.epoch, "lo": rec.lo, "hi": rec.hi,
                    "keys_only": rec.keys_only,
                },
            )
            if rec.spans:
                # engine bundles were recorded on worker-local clocks;
                # rebase each onto this client's serve timeline so the
                # trace is independent of which worker ran the query
                base = min(float(s["ts"]) for s in rec.spans)
                self.obs.tracer.merge_events(
                    [
                        {**span, "ts": t0 + (float(span["ts"]) - base)}
                        for span in rec.spans
                    ]
                )
            client_ts[rec.client] = t0 + dur
        for name, value in (
            ("serve.requests", stats.submitted),
            ("serve.served", stats.served),
            ("serve.ok", stats.ok),
            ("serve.deadline_exceeded", stats.deadline_exceeded),
            ("serve.rejected", stats.rejected),
            ("serve.errors", stats.errors),
            ("serve.cache_hits", stats.cache_hits),
            ("serve.cache_misses", stats.cache_misses),
            ("serve.invalidations", stats.invalidations),
        ):
            metrics.counter(name).add(value)
        self.obs.telemetry.sample("serve")
