"""The ``carp serve`` closed-loop serving workload.

Drives :meth:`repro.api.Session.serve` the way the acceptance test for
the serving plane is phrased: epochs keep ingesting while ``clients``
concurrent closed-loop clients (submit → wait → next) issue typed
:class:`~repro.query.request.QueryRequest` objects against the
service, and the run reports served-latency p50/p95/p99 via
:meth:`~repro.obs.metrics.Histogram.quantile` plus exact workload
counters, baseline-gated through ``carp perf compare``.

Four phases, shaped so every *exact* metric is independent of thread
interleaving (the whole point of the serve plane's determinism
contract — see ``docs/SERVING.md``):

1. **mixed** — for each epoch ``e >= 1``, ingest runs on a background
   thread while the clients query epochs committed *before* ``e``.
   Every in-flight query names a distinct ``(epoch, lo, hi)``, so each
   is exactly one cache miss no matter how requests interleave with
   the epoch-commit snapshot invalidation.
2. **cache** — after all ingest is done, each client issues its
   queries twice back-to-back: deterministic one-miss-one-hit pairs.
3. **deadline** — each client issues one near-full-span query of its
   own with a vanishing deadline (virtual-time budget), yielding a
   deterministic ``deadline-exceeded`` count.
4. **evict** — once the serve plane is closed, one client replays a seeded
   Zipf draw (:func:`evict_requests`) against a standalone
   one-worker service whose cache holds :data:`EVICT_CAPACITY`
   results, a fraction of the ranges drawn, so the cache's eviction
   policy decides which refills the draw pays for, and a narrow range
   drawn while a wider one holding it is cached is a contained hit.
   It has no obs stack and its payloads stay out of the digest: it
   adds its three counts and moves nothing else.

Response payloads are folded into one order-independent digest
(responses are hashed, sorted, re-hashed), so the baseline gate also
pins the *served bytes*, not just the counters.
"""

from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass, replace
from pathlib import Path

from repro.api import Session
from repro.perf.workloads import WorkloadSpec
from repro.query.engine import LATENCY_BOUNDS
from repro.query.service import QueryService
from repro.query.request import (
    STATUS_DEADLINE_EXCEEDED,
    STATUS_OK,
    QueryRequest,
    QueryResponse,
)
from repro.traces.vpic import VpicTraceSpec, generate_timestep


@dataclass(frozen=True)
class ServeReport:
    """Everything one serve workload run measured."""

    workload: str
    requests: int
    ok: int
    deadline_exceeded: int
    rejected: int
    errors: int
    cache_hits: int
    cache_misses: int
    invalidations: int
    engine_queries: int
    payload_digest: str
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_mean: float
    served_count: int
    #: engine executions of the evict phase, the bytes they read, and
    #: its hits sliced from a cached range containing the request's
    evict_engine_queries: int
    evict_refill_bytes: int
    evict_contained_hits: int
    #: Paths of artifacts persisted under the run's output directory
    #: (metrics.json / telemetry.jsonl / trace.json), when requested.
    artifacts: tuple[str, ...] = ()


def _client_queries(
    spec: WorkloadSpec,
    client: int,
    phase: int,
    visible_epochs: int,
    lo: float,
    hi: float,
) -> list[QueryRequest]:
    """Distinct per-(phase, client) query windows over committed epochs.

    Windows are arithmetic functions of the indices, so no two
    in-flight requests of one phase share a cache key and the same
    spec always generates the same requests.
    """
    span = hi - lo
    total = max(spec.clients * spec.queries, 1)
    out: list[QueryRequest] = []
    for q in range(spec.queries):
        # injective in (client, q) within a phase and offset per phase:
        # no two in-flight requests of one phase ever share a cache
        # key, which is what keeps hit/miss counts interleaving-free
        idx = client * spec.queries + q
        qlo = lo + span * 0.8 * idx / total + span * 0.003 * phase
        qhi = qlo + span / (spec.queries * 4)
        out.append(
            QueryRequest(
                lo=qlo, hi=qhi,
                epoch=(client + q + phase) % visible_epochs,
                client=f"client-{client:02d}",
            )
        )
    return out


def _run_clients(
    service: QueryService, per_client: list[list[QueryRequest]]
) -> list[QueryResponse]:
    """Run one closed loop per client, concurrently; gather responses."""
    responses: list[QueryResponse] = []
    guard = threading.Lock()

    def loop(requests: list[QueryRequest]) -> None:
        mine = [service.query(r) for r in requests]
        with guard:
            responses.extend(mine)

    threads = [
        threading.Thread(target=loop, args=(reqs,), name=f"carp-client-{i}")
        for i, reqs in enumerate(per_client)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return responses


#: The evict phase's range widths (fractions of epoch 0's key span),
#: each 10x the last, so refill costs span orders of magnitude.
EVICT_WIDTHS = (1e-4, 1e-3, 1e-2, 1e-1)
EVICT_RANGES = 24
EVICT_REQUESTS = 200
EVICT_CAPACITY = 8


def evict_requests(lo: float, hi: float, seed: int) -> list[QueryRequest]:
    """The evict phase's draw: Zipf(1) over 24 epoch-0 ranges.

    Rank ``r`` (popularity order) has width ``EVICT_WIDTHS[r % 4]`` and
    an anchor that spreads each width over the key span, so every
    popularity level mixes cheap and costly refills; only the draw
    order comes from ``seed``.
    """
    span = hi - lo
    pool = []
    for r in range(EVICT_RANGES):
        width = span * EVICT_WIDTHS[r % len(EVICT_WIDTHS)]
        # 7 is coprime to 24: a permutation of the anchor slots
        qlo = lo + (span - width) * ((7 * r) % EVICT_RANGES) / EVICT_RANGES
        pool.append(QueryRequest(lo=qlo, hi=qlo + width, epoch=0, client="evict"))
    weights = [1.0 / (r + 1) for r in range(EVICT_RANGES)]
    return random.Random(seed).choices(pool, weights, k=EVICT_REQUESTS)


def _run_evict(
    db_dir: Path, requests: list[QueryRequest]
) -> tuple[int, int, int]:
    """Serve ``requests`` in order; (engine executions, bytes they read,
    contained hits)."""
    refill_bytes = 0
    with QueryService(db_dir, workers=1, cache_capacity=EVICT_CAPACITY) as service:
        for request in requests:
            response = service.query(request)
            assert response.status == STATUS_OK, response.detail
            if not response.cached:
                assert response.cost is not None
                refill_bytes += response.cost.bytes_read
        stats = service.stats
    return stats.engine_queries, refill_bytes, stats.contained_hits


def combined_digest(responses: list[QueryResponse]) -> str:
    """Order-independent digest over every response payload."""
    digests = sorted(r.digest() for r in responses)
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def run_serve_workload(
    spec: WorkloadSpec, scratch: Path, out_dir: Path | None = None
) -> ServeReport:
    """Execute the closed-loop serving workload; optionally persist
    the session's metrics/telemetry/trace under ``out_dir``."""
    if spec.epochs < 2:
        raise ValueError("serve workload needs >= 2 epochs (1 pre-ingested)")
    trace = VpicTraceSpec(
        nranks=spec.nranks,
        particles_per_rank=spec.records_per_rank,
        value_size=8,
        seed=spec.seed,
    )
    db_dir = scratch / "db"
    responses: list[QueryResponse] = []
    with Session(
        spec.nranks, db_dir, spec.options(),
        record=True, telemetry=True,
    ) as session:
        session.ingest_epoch(0, generate_timestep(trace, 0))
        lo, hi = session.store().key_range(0)
        service = session.serve(
            workers=spec.workers, max_pending=max(64, spec.clients * 2)
        )
        # phase 1: serve while ingesting (the tentpole scenario)
        for epoch in range(1, spec.epochs):
            ingest = threading.Thread(
                target=session.ingest_epoch,
                args=(epoch, generate_timestep(trace, epoch)),
                name=f"carp-ingest-{epoch}",
            )
            ingest.start()
            responses.extend(_run_clients(service, [
                _client_queries(spec, c, epoch, epoch, lo, hi)
                for c in range(spec.clients)
            ]))
            ingest.join()
        # phase 2: cache hits (each client repeats its queries)
        pairs = [
            [r for req in _client_queries(
                spec, c, spec.epochs, spec.epochs, lo, hi
            ) for r in (req, req)]
            for c in range(spec.clients)
        ]
        responses.extend(_run_clients(service, pairs))
        # phase 3: deadline-bounded wide scans.  Each client gets
        # its own (near-full-span) window: with a shared window,
        # single-flight would pick a timing-dependent owner and
        # move the one nonzero latency to a different position in
        # the close-time histogram summation, perturbing the float
        # total by an ulp run-to-run
        responses.extend(_run_clients(service, [
            [QueryRequest(lo=lo + (hi - lo) * 1e-4 * c, hi=hi,
                          epoch=0, client=f"client-{c:02d}",
                          deadline=1e-9)]
            for c in range(spec.clients)
        ]))
        stats = service.stats
        service.close()
        hist = session.obs.metrics.histogram(
            "serve.latency", LATENCY_BOUNDS
        )
        assert hist.count > 0, "service merged no served latencies"
        p50, p95, p99 = (
            hist.quantile(0.50), hist.quantile(0.95), hist.quantile(0.99)
        )
        assert p50 is not None and p95 is not None and p99 is not None
        # phase 4: eviction, over more ranges than the cache holds
        evict_queries, evict_bytes, evict_contained = _run_evict(
            db_dir, evict_requests(lo, hi, spec.seed)
        )
        artifacts: list[str] = []
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            artifacts.append(
                str(session.write_metrics(out_dir / "metrics.json"))
            )
            session.obs.tracer.write(out_dir / "trace.json")
            artifacts.append(str(out_dir / "trace.json"))
        report = ServeReport(
            workload=spec.name,
            requests=stats.submitted,
            ok=stats.ok,
            deadline_exceeded=stats.deadline_exceeded,
            rejected=stats.rejected,
            errors=stats.errors,
            cache_hits=stats.cache_hits,
            cache_misses=stats.cache_misses,
            invalidations=stats.invalidations,
            engine_queries=stats.engine_queries,
            payload_digest=combined_digest(responses),
            latency_p50=p50,
            latency_p95=p95,
            latency_p99=p99,
            latency_mean=hist.mean,
            served_count=hist.count,
            evict_engine_queries=evict_queries,
            evict_refill_bytes=evict_bytes,
            evict_contained_hits=evict_contained,
            artifacts=tuple(artifacts),
        )
    if out_dir is not None:
        # the session's own telemetry sink closes with the session;
        # copy the stream into the artifact directory afterwards
        telemetry = db_dir / "telemetry.jsonl"
        if telemetry.is_file():
            target = out_dir / "telemetry.jsonl"
            target.write_bytes(telemetry.read_bytes())
            report = replace(
                report, artifacts=report.artifacts + (str(target),)
            )
    # sanity: the status split must reconcile with the response list
    assert report.ok == sum(1 for r in responses if r.status == STATUS_OK)
    assert report.deadline_exceeded == sum(
        1 for r in responses if r.status == STATUS_DEADLINE_EXCEEDED
    )
    return report
