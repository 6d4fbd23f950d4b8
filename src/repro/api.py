"""``repro.api`` — the :class:`Session` facade.

The library's primitives compose by explicit injection: ``CarpRun``
and the compactor take ``obs=``, and ``PartitionedStore.query`` takes
it per call.  That is the right seam for tests and benchmarks, but a
user who just wants "ingest, then query, with one observability stack"
ends up threading the same objects through several calls (the scatter
visible in ``docs/API.md``).

``Session`` owns that wiring: one ``Obs``, one ``CarpRun`` and the
views over its output, created together and torn down together::

    from repro.api import Session
    from repro.query.request import QueryRequest

    with Session(nranks=16, out_dir="out/") as session:
        session.ingest_epoch(0, streams)
        result = session.query(QueryRequest(lo=16.0, hi=64.0, epoch=0))
    # logs closed, metrics still readable

Views handed out by :meth:`Session.store` are attached: the session
closes them.  A view records nothing itself; :meth:`Session.query` and
:meth:`Session.explain` pass the session's obs to each call.  The
underlying constructors keep working unchanged for callers that want
manual control.

The read side is *snapshot-first* (``docs/SERVING.md``):
:meth:`Session.snapshot` pins the last committed manifest chain of
every log, :meth:`Session.store` opens pinned views that survive
concurrent ingest, and :meth:`Session.serve` starts a
:class:`~repro.query.service.QueryService` admitting many concurrent
typed :class:`~repro.query.request.QueryRequest` objects while
``ingest_epoch`` keeps running.  :meth:`Session.query` takes one
:class:`QueryRequest` and returns a typed
:class:`~repro.query.request.QueryResponse`.
"""

from __future__ import annotations

from pathlib import Path
from types import TracebackType
from typing import TextIO

from repro.core.carp import CarpRun, EpochStats
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.faults.plan import FaultPlan
from repro.obs import NULL_OBS, Obs, RequestIdAllocator, TelemetryStream
from repro.query.engine import PartitionedStore
from repro.query.explain import QueryExplain
from repro.query.request import (
    LIVE_TOKEN,
    QueryRequest,
    QueryResponse,
    response_from_result,
)
from repro.query.service import QueryService
from repro.sim.iomodel import IOModel
from repro.storage.snapshot import Snapshot, pin_snapshot


class Session:
    """One CARP ingest-and-query context: obs + run + views.

    Parameters mirror :class:`~repro.core.carp.CarpRun`; ``record=True``
    is a convenience that builds a recording ``Obs`` stack
    (``Obs.recording()``) when no explicit ``obs=`` is given.
    """

    def __init__(
        self,
        nranks: int,
        out_dir: Path | str,
        options: CarpOptions | None = None,
        nreceivers: int | None = None,
        obs: Obs | None = None,
        io: IOModel | None = None,
        record: bool = False,
        faults: FaultPlan | None = None,
        telemetry: TelemetryStream | bool = False,
    ) -> None:
        if obs is None:
            self.obs = Obs.recording() if record else NULL_OBS
        else:
            self.obs = obs
        self.io = io or IOModel()
        self.out_dir = Path(out_dir)
        self._requests = RequestIdAllocator()
        self.run = CarpRun(
            nranks,
            self.out_dir,
            options,
            nreceivers=nreceivers,
            obs=self.obs,
            faults=faults,
        )
        # ``telemetry=True`` opens <out_dir>/telemetry.jsonl and streams
        # samples into it (closed with the session); an explicit
        # TelemetryStream is attached as-is and its sink stays owned by
        # the caller.  Either way the stream rides on the session obs,
        # which must therefore be a recording stack — NULL_OBS is a
        # shared singleton and must never be mutated.
        self._telemetry_file: TextIO | None = None
        self.telemetry: TelemetryStream | None = None
        if telemetry:
            if not self.obs.enabled:
                raise ValueError(
                    "telemetry needs a recording obs stack: pass "
                    "record=True or an enabled obs="
                )
            if isinstance(telemetry, TelemetryStream):
                self.telemetry = telemetry
            else:
                self.out_dir.mkdir(parents=True, exist_ok=True)
                self._telemetry_file = (self.out_dir / "telemetry.jsonl").open(
                    "w", encoding="utf-8"
                )
                self.telemetry = TelemetryStream(
                    self.obs.metrics,
                    self.obs.clock,
                    self._telemetry_file,
                    record_bytes=4 + self.run.options.value_size,
                )
            self.obs.telemetry = self.telemetry
        self._store: PartitionedStore | None = None
        #: Pinned read views by snapshot token.  Deliberately *not*
        #: torn down by :meth:`_invalidate_views`: a pinned store only
        #: consults bytes before its snapshot's commit points, which a
        #: concurrent ingest never rewrites, so the view stays valid
        #: across epochs until released or the session closes.
        self._pinned: dict[str, PartitionedStore] = {}
        self._services: list[QueryService] = []
        self._closed = False

    # ------------------------------------------------------------ ingest

    def ingest_epoch(self, epoch: int, streams: list[RecordBatch]) -> EpochStats:
        """Ingest one epoch through the session's :class:`CarpRun`.

        Each epoch is one logical *request*: the session mints a
        deterministic ``ingest-NNNNNN`` id that tags every span and
        telemetry sample on the epoch's causal path, driver- and
        storage-side (see :mod:`repro.obs.context`).
        """
        ctx = self._requests.mint("ingest")
        stats = self.run.ingest_epoch(epoch, streams, ctx=ctx)
        # the logs grew, so any open *live* store view is stale; pinned
        # views keep reading their snapshot's committed prefix untouched
        self._invalidate_views()
        # epoch commit: advance every serving plane to the new commit
        # point (their caches key on the snapshot token, so results of
        # the superseded snapshot can never leak into the new one)
        if self._services:
            snap = pin_snapshot(self.out_dir)
            for service in self._services:
                service.invalidate(snap)
        return stats

    # --------------------------------------------------------- snapshots

    def snapshot(self) -> Snapshot:
        """Pin the current committed state of every output log.

        The returned :class:`~repro.storage.snapshot.Snapshot` is pure
        metadata (per-log commit points validated by
        :func:`~repro.storage.recovery.find_committed_state` plus a
        token naming them); readers opened on it never see epochs that
        commit later, so ingest and snapshot queries proceed
        concurrently with no coordination.
        """
        self._check_open()
        return pin_snapshot(self.out_dir)

    def release(self, snapshot: Snapshot) -> None:
        """Close the pinned store view opened for ``snapshot`` (if any)."""
        store = self._pinned.pop(snapshot.token, None)
        if store is not None:
            store.close()

    # ------------------------------------------------------------- views

    def store(self, snapshot: Snapshot | None = None) -> PartitionedStore:
        """An attached read view over the session's output directory.

        Without a snapshot: the *live* view — created lazily (the
        run's buffered epochs must be finished before the logs are
        readable) and cached; re-opened after each further
        :meth:`ingest_epoch`.

        With ``snapshot=``: a *pinned* view opened at the snapshot's
        commit points, cached per token.  Pinned views survive
        concurrent ingest (see :meth:`_invalidate_views`) and are
        closed by :meth:`release` or session close.
        """
        self._check_open()
        if snapshot is not None:
            pinned = self._pinned.get(snapshot.token)
            if pinned is None:
                pinned = PartitionedStore(
                    self.out_dir, io=self.io, snapshot=snapshot,
                )
                self._pinned[snapshot.token] = pinned
            return pinned
        if self._store is None:
            self._store = PartitionedStore(self.out_dir, io=self.io)
        return self._store

    # ------------------------------------------------------------- reads

    def query(
        self, request: QueryRequest, *, snapshot: Snapshot | None = None
    ) -> QueryResponse:
        """Range query against the session's output.

        ``session.query(QueryRequest(lo=..., hi=...))`` —
        epoch-or-latest, typed :class:`QueryResponse` reply.
        ``snapshot=`` runs the query against a pinned view instead of
        the live store.

        Mints a ``query-NNNNNN`` request id; the query/probe spans and
        the post-query telemetry sample carry it.
        """
        request.validate()
        store = self.store(snapshot=snapshot)
        target = store.resolve_epoch(request.epoch)
        ctx = self._requests.mint("query")
        result = store.query(
            target, request.lo, request.hi,
            keys_only=request.keys_only, ctx=ctx, obs=self.obs,
        )
        token = snapshot.token if snapshot is not None else LIVE_TOKEN
        return response_from_result(request, ctx.request_id, token, result)

    def explain(
        self, request: QueryRequest, *, snapshot: Snapshot | None = None
    ) -> QueryExplain:
        """Plan + cost report for a range query (no merge executed).

        See :meth:`repro.query.engine.PartitionedStore.explain`; the
        report reconciles exactly against :attr:`QueryResponse.cost`.
        Mints an ``explain-NNNNNN`` request id carried by one
        zero-duration trace span, so ``carp profile record --request``
        covers EXPLAIN requests too.
        """
        request.validate()
        store = self.store(snapshot=snapshot)
        target = store.resolve_epoch(request.epoch)
        ctx = self._requests.mint("explain")
        return store.explain(
            target, request.lo, request.hi,
            keys_only=request.keys_only, ctx=ctx, obs=self.obs,
        )

    # ------------------------------------------------------------- serve

    def serve(
        self,
        snapshot: Snapshot | None = None,
        workers: int = 4,
        max_pending: int = 64,
        cache_capacity: int = 128,
        autostart: bool = True,
    ) -> QueryService:
        """Start a concurrent query service over a pinned snapshot.

        The service admits :class:`QueryRequest` objects from many
        client threads while :meth:`ingest_epoch` keeps running —
        bounded admission, per-client round-robin fairness, and a
        single-flight result cache keyed on the snapshot token that
        evicts the result cheapest to refill
        (see :mod:`repro.query.service` and ``docs/SERVING.md``).
        Each epoch commit re-pins every attached service.  The session
        closes attached services on :meth:`close`; closing a service
        merges its telemetry into the session obs stack.
        """
        self._check_open()
        service = QueryService(
            self.out_dir,
            io=self.io,
            obs=self.obs,
            requests=self._requests,
            snapshot=snapshot if snapshot is not None else self.snapshot(),
            workers=workers,
            max_pending=max_pending,
            cache_capacity=cache_capacity,
            autostart=autostart,
        )
        self._services.append(service)
        return service

    # ---------------------------------------------------------- plumbing

    def _invalidate_views(self) -> None:
        """Tear down the *live* store view (stale after an ingest).

        Pinned stores (``self._pinned``) and serving planes
        (``self._services``) deliberately survive: both read only the
        committed prefixes named by their snapshots, which an ingest
        appends after, never into.
        """
        if self._store is not None:
            self._store.close()
            self._store = None

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    def write_metrics(self, path: Path | str | None = None) -> Path:
        """Persist the session's metrics snapshot (``metrics.json``)."""
        target = Path(path) if path is not None else self.out_dir / "metrics.json"
        return self.obs.metrics.write_json(target)

    def close(self) -> None:
        """Close views and the run.

        With telemetry attached, the run teardown (which merges the
        rank stacks a last time) is followed by one ``final`` full
        sample — the sample ``carp health`` policies gate on — before
        the session-owned sink closes.
        """
        if self._closed:
            return
        self._closed = True
        # serving planes first: their close drains queued requests and
        # merges worker telemetry into the session obs stack, which the
        # final telemetry sample below must already include
        for service in self._services:
            service.close()
        self._invalidate_views()
        for pinned in self._pinned.values():
            pinned.close()
        self._pinned.clear()
        self.run.close()
        if self.telemetry is not None:
            self.telemetry.sample("final")
        if self._telemetry_file is not None:
            self._telemetry_file.close()
            self._telemetry_file = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()
