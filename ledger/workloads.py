"""The four workloads.

Each drives the program through its public API only, keeps at most one
repetition's output (<= 200 MB) on disk, deletes it before the next,
discards one warm-up repetition inside ``setup`` and reports medians
over repetitions (timings) or exact counts.  The page-cache rule behind
that shape is in ``ledger/README.md``.

A workload is ``setup() -> measure() [-> measure()] -> teardown()``;
``measure`` can run twice on one set-up because the traced run measures
the same section with wrappers off, then on.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api import Session
from repro.query.engine import PartitionedStore
from repro.query.request import QueryRequest
from repro.query.service import QueryService

from ledger import spec
from ledger.loadgen import Digest, Load, Oracle
from ledger.spec import RECORD_BYTES, Scale
from ledger.trace import NULL_TRACER, NullTracer, Tracer

SERVE_WORKERS = 2
CLIENT_JOIN_TIMEOUT_S = 170.0


#: One served request as its client saw it: (t0 ns, t1 ns, lo, hi, cached,
#: ssts_read, bytes_read, records_scanned, records_matched).  The cost
#: rides on cached replies too.
Served = tuple[int, int, float, float, bool, int, int, int, int]


@dataclass
class Stat:
    """One reported number and how many samples stand behind it."""

    value: float
    samples: int


@dataclass
class Measurement:
    """What one ``measure()`` call saw."""

    native: dict[str, Stat] = field(default_factory=dict)  # the ledger's metrics
    driver: dict[str, float] = field(default_factory=dict)  # BENCHMARK.json's cells
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # first few reasons
    #: wall of the measured work, the traced/untraced overhead ratio's input
    work_s: float = 0.0
    # inputs of the per-layer metrics
    records_ingested: int = 0
    epochs_ingested: int = 0
    storage: dict[str, int] = field(default_factory=dict)  # summed KoiDB.stats
    #: per engine-executed query: (class, ssts_read, bytes_read, scanned, matched)
    costs: list[tuple[str, int, int, int, int]] = field(default_factory=list)
    #: per served request, see :data:`Served`
    served: list[Served] = field(default_factory=list)
    service: dict[str, int] = field(default_factory=dict)  # summed ServeStats

    def op(self, failure: str | None) -> None:
        """Count one attempted operation; ``failure`` says why it failed."""
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(failure)


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _tail(values: list[float]) -> float:
    """The highest percentile, at most p95, with ten samples beyond it
    (the median when there are fewer than twenty)."""
    return _percentile(values, min(95.0, max(50.0, 100.0 * (1.0 - 10.0 / len(values)))))


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _add_storage(total: dict[str, int], session: Session) -> None:
    for db in session.run.koidbs:
        for f in dataclasses.fields(db.stats):
            total[f.name] = total.get(f.name, 0) + getattr(db.stats, f.name)


def _add_service(total: dict[str, int], service: QueryService) -> None:
    stats = service.stats
    for name in ("submitted", "cache_hits", "cache_misses", "engine_queries",
                 "invalidations", "rejected", "errors"):
        total[name] = total.get(name, 0) + getattr(stats, name)


class Workload:
    """Base: owns the scratch directory layout and the loaded inputs."""

    name = ""

    def __init__(self, seed: int, scale: Scale, scratch: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.scratch = scratch
        self.load: Load | None = None

    @property
    def oracle(self) -> Oracle:
        assert self.load is not None
        return self.load.oracle

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, scale: Scale, tracer: Tracer | NullTracer = NULL_TRACER) -> Measurement:
        raise NotImplementedError

    def verify(self, m: Measurement) -> None:
        """Checks too heavy to interleave with ``measure``; run with wrappers off."""

    def teardown(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True, exist_ok=True)


# ---------------------------------------------------------------- ingest-1m


class IngestWorkload(Workload):
    """Fresh Session -> three drifting epochs -> close, repeated."""

    name = "ingest-1m"

    def setup(self) -> None:
        self.load = Load(self.seed, self.scale)
        self._repetition(self.scratch / "warmup", Measurement(), timed=None)

    def _repetition(
        self, out_dir: Path, m: Measurement, timed: dict[str, list[float]] | None,
        keep: bool = False,
    ) -> None:
        assert self.load is not None
        session: Session | None = None
        try:
            t0 = time.perf_counter()
            session = Session(self.scale.nranks, out_dir)
            for epoch, streams in enumerate(self.load.epochs):
                e0 = time.perf_counter()
                try:
                    session.ingest_epoch(epoch, streams)
                    m.op(None)
                except Exception as exc:  # the benchmark must report, not die
                    m.op(f"ingest_epoch({epoch}) raised {type(exc).__name__}: {exc}")
                    return
                if timed is not None:
                    timed["epoch_ms"].append((time.perf_counter() - e0) * 1e3)
            session.close()
            wall = time.perf_counter() - t0
            if timed is not None:
                timed["rep_s"].append(wall)
                timed["bytes"].append(_dir_bytes(out_dir))
                _add_storage(m.storage, session)
                m.records_ingested += self.load.NEPOCHS * self.scale.epoch_records
                m.epochs_ingested += self.load.NEPOCHS
        finally:
            if session is not None:
                session.close()
            if not keep:
                shutil.rmtree(out_dir, ignore_errors=True)

    def verify(self, m: Measurement) -> None:
        """The last repetition's output, freshly opened, holds exactly what went in."""
        out_dir = self.scratch / "last"
        try:
            with PartitionedStore(out_dir) as store:
                for epoch in range(Load.NEPOCHS):
                    got = store.total_records(epoch)
                    m.op(None if got == self.scale.epoch_records else
                         f"manifests of epoch {epoch} hold {got} records")
                    result = store.scan(epoch)
                    m.op(self.oracle.check_scan(epoch, result.keys, result.rids))
        except Exception as exc:
            m.op(f"verification raised {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def measure(self, scale: Scale, tracer: Tracer | NullTracer = NULL_TRACER) -> Measurement:
        m = Measurement()
        timed: dict[str, list[float]] = {"rep_s": [], "epoch_ms": [], "bytes": []}
        for rep in range(scale.ingest_reps):
            tracer.tag(f"rep-{rep}")
            last = rep == scale.ingest_reps - 1
            self._repetition(
                self.scratch / ("last" if last else f"rep{rep}"), m, timed, keep=last
            )
        if not timed["rep_s"]:
            return m
        rep_records = Load.NEPOCHS * self.scale.epoch_records
        amps = {b / (rep_records * RECORD_BYTES) for b in timed["bytes"]}
        m.op(None if len(amps) == 1 else f"write_amp differs between repetitions: {sorted(amps)}")
        krec_s = rep_records / statistics.median(timed["rep_s"]) / 1e3
        m.work_s = statistics.median(timed["rep_s"])
        m.native = {
            "ingest_krec_s": Stat(krec_s, len(timed["rep_s"])),
            "write_amp": Stat(max(amps), len(timed["bytes"])),
        }
        m.driver = {
            "throughput_kops_s": krec_s,
            "latency_ms_p50": _percentile(timed["epoch_ms"], 50),
            "latency_ms_tail": _tail(timed["epoch_ms"]),
            "io_amp": max(amps),
        }
        return m


# -------------------------------------------------------------- query-sweep


class _StoreWorkload(Workload):
    """Shared set-up of the two workloads that read one two-epoch store."""

    STORE_EPOCHS = 2

    def __init__(self, seed: int, scale: Scale, scratch: Path) -> None:
        super().__init__(seed, scale, scratch)
        self.session: Session | None = None

    def _build_store(self) -> None:
        self.load = Load(self.seed, self.scale)
        self.session = Session(self.scale.nranks, self.scratch / "store")
        for epoch in range(self.STORE_EPOCHS):
            self.session.ingest_epoch(epoch, self.load.epochs[epoch])

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
        super().teardown()


class SweepWorkload(_StoreWorkload):
    """One closed-loop caller, six selectivity classes, live store, no cache."""

    name = "query-sweep"

    def setup(self) -> None:
        self._build_store()
        assert self.load is not None
        rng = self.load.rng(1)
        self.queries: list[tuple[str, QueryRequest]] = []
        for cls, selectivity, keys_only in spec.SWEEP_CLASSES:
            for i, anchor in enumerate(Load.anchors(self.scale.sweep_anchors, rng)):
                epoch = i % self.STORE_EPOCHS
                self.queries.append(
                    (cls, self.load.request(epoch, selectivity, anchor, epoch, keys_only))
                )
        # warm-up: every fourth anchor of each class opens the store and
        # touches every SST's pages (15 sel-10pct ranges alone cover the key
        # space 1.5 times) at a quarter of a pass's cost
        self._pass(np.arange(0, len(self.queries), 4), Measurement(), None, NULL_TRACER, 0)

    def _pass(
        self, order: np.ndarray, m: Measurement, lat: dict[str, list[float]] | None,
        tracer: Tracer | NullTracer, pass_idx: int,
    ) -> None:
        assert self.session is not None
        query = self.session.query
        check = self.oracle.check_response
        for j in order:
            cls, request = self.queries[j]
            tracer.tag(f"pass-{pass_idx}/q-{j}")
            t0 = time.perf_counter()
            try:
                response = query(request)
            except Exception as exc:
                m.op(f"query raised {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            # verified right after the timed window, never inside it
            m.op(check(response))
            if lat is not None:
                lat[cls].append(elapsed * 1e3)
                cost = response.cost
                m.costs.append((cls, cost.ssts_read, cost.bytes_read,
                                cost.records_scanned, cost.records_matched))

    def measure(self, scale: Scale, tracer: Tracer | NullTracer = NULL_TRACER) -> Measurement:
        assert self.load is not None and self.session is not None
        m = Measurement()
        lat: dict[str, list[float]] = {cls: [] for cls, _s, _k in spec.SWEEP_CLASSES}
        rng = self.load.rng(2)
        for pass_idx in range(scale.sweep_passes):
            self._pass(rng.permutation(len(self.queries)), m, lat, tracer, pass_idx)
        _add_storage(m.storage, self.session)
        if not all(lat.values()):
            return m
        pooled = [x for cls, v in lat.items() if cls != spec.KEYS_CLASS for x in v]
        narrow = [c for c in m.costs if c[0] == spec.NARROW_CLASS]
        read_amp = sum(c[2] for c in narrow) / (sum(c[4] for c in narrow) * RECORD_BYTES)
        total_s = sum(sum(v) for v in lat.values()) / 1e3
        nqueries = sum(len(v) for v in lat.values())
        m.work_s = total_s
        m.native = {
            "query_narrow_ms_p50": Stat(_percentile(lat[spec.NARROW_CLASS], 50),
                                        len(lat[spec.NARROW_CLASS])),
            "query_wide_ms_p50": Stat(_percentile(lat[spec.WIDE_CLASS], 50),
                                      len(lat[spec.WIDE_CLASS])),
            "query_keysonly_ms_p50": Stat(_percentile(lat[spec.KEYS_CLASS], 50),
                                          len(lat[spec.KEYS_CLASS])),
            "query_ms_p95": Stat(_percentile(pooled, 95), len(pooled)),
            "query_narrow_read_amp": Stat(read_amp, len(narrow)),
        }
        m.driver = {
            "throughput_kops_s": nqueries / total_s / 1e3,
            "latency_ms_p50": m.native["query_narrow_ms_p50"].value,
            "latency_ms_tail": m.native["query_ms_p95"].value,
            "io_amp": read_amp,
        }
        return m


# ---------------------------------------------------- the closed-loop client


class _Client:
    """One closed-loop caller: the next request goes out when the reply is in."""

    def __init__(self, service: QueryService, requests: list[QueryRequest]) -> None:
        self.service = service
        self.requests = requests
        self.stop = threading.Event()
        self.served: list[Served] = []
        self.digests: list[Digest] = []
        self.errors: list[str] = []
        self.thread = threading.Thread(target=self._run, name="ledger-client")

    def _run(self) -> None:
        clock = time.perf_counter_ns
        submit = self.service.submit
        digest = Oracle.digest
        for request in self.requests:
            if self.stop.is_set():
                return
            t0 = clock()
            try:
                response = submit(request).result(CLIENT_JOIN_TIMEOUT_S)
            except Exception as exc:
                self.errors.append(f"serve raised {type(exc).__name__}: {exc}")
                continue
            t1 = clock()
            cost = response.cost
            self.served.append(
                (t0, t1, request.lo, request.hi, response.cached)
                + ((cost.ssts_read, cost.bytes_read, cost.records_scanned,
                    cost.records_matched) if cost is not None else (0, 0, 0, 0))
            )
            self.digests.append(digest(response))

    def join(self) -> None:
        self.thread.join(CLIENT_JOIN_TIMEOUT_S)
        if self.thread.is_alive():
            self.stop.set()
            self.errors.append("client thread did not finish in time")

    def account(self, m: Measurement, oracle: Oracle, timed: bool) -> None:
        """After the join: check every response, off the timed threads."""
        for error in self.errors:
            m.op(error)
        for d in self.digests:
            m.op(oracle.check_digest(d))
        if timed:
            m.served.extend(self.served)

    def latencies_ms(self) -> list[float]:
        return [(row[1] - row[0]) / 1e6 for row in self.served]


# ---------------------------------------------------------------- serve-hot


class HotWorkload(_StoreWorkload):
    """Two closed-loop clients, Zipf over a pool three times the cache."""

    name = "serve-hot"
    CLIENTS = 2  # = nproc; with the two workers the generator adds no third busy thread

    def setup(self) -> None:
        self._build_store()
        assert self.load is not None
        rng = self.load.rng(3)
        pool = self.scale.hot_pool
        nsel = len(spec.HOT_SELECTIVITIES)
        # pool[r] is the r-th most popular range.  Its class (r % 4) and epoch
        # ((r // 4) % 2) are fixed by the rank, so the hit/miss cost mix at
        # every popularity level is the same for every seed; only where in the
        # key space each range sits (a seeded shuffle of stratified anchors)
        # is drawn.
        anchors = rng.permutation(Load.anchors(pool, rng))
        base = [
            self.load.request(
                (r // nsel) % self.STORE_EPOCHS, spec.HOT_SELECTIVITIES[r % nsel],
                anchors[r], (r // nsel) % self.STORE_EPOCHS,
            )
            for r in range(pool)
        ]
        self.pool = [
            [dataclasses.replace(q, client=f"client-{c}") for q in base]
            for c in range(self.CLIENTS)
        ]
        self.pool_class = [
            spec.class_name(spec.HOT_SELECTIVITIES[r % nsel]) for r in range(pool)
        ]
        weights = 1.0 / np.arange(1, pool + 1)  # Zipf(1.0) over the ranks
        self.weights = weights / weights.sum()

    def _draws(self, client: int, n: int, stream: int) -> list[QueryRequest]:
        assert self.load is not None
        picks = self.load.rng(4, stream, client).choice(len(self.weights), size=n, p=self.weights)
        return [self.pool[client][r] for r in picks]

    def _burst(self, service: QueryService, n: int, stream: int) -> tuple[list[_Client], float]:
        clients = [_Client(service, self._draws(c, n, stream)) for c in range(self.CLIENTS)]
        t0 = time.perf_counter()
        for client in clients:
            client.thread.start()
        for client in clients:
            client.join()
        return clients, time.perf_counter() - t0

    def measure(self, scale: Scale, tracer: Tracer | NullTracer = NULL_TRACER) -> Measurement:
        assert self.session is not None
        m = Measurement()
        service = self.session.serve(
            workers=SERVE_WORKERS, max_pending=64, cache_capacity=128
        )
        try:
            # untimed: brings the result cache to its steady hit ratio
            warm, _ = self._burst(service, scale.hot_warmup, stream=0)
            for client in warm:
                client.account(m, self.oracle, timed=False)
            clients, wall = self._burst(service, scale.hot_requests, stream=1)
            for client in clients:
                client.account(m, self.oracle, timed=True)
            _add_service(m.service, service)
        finally:
            service.close()
        _add_storage(m.storage, self.session)
        cls_of = {(r.lo, r.hi): cls for r, cls in zip(self.pool[0], self.pool_class)}
        m.costs = [(cls_of[row[2], row[3]], *row[5:]) for row in m.served if not row[4]]
        lat = [x for client in clients for x in client.latencies_ms()]
        if not lat:
            return m
        m.work_s = wall
        qps = len(lat) / wall
        m.native = {
            "serve_qps": Stat(qps, len(lat)),
            "serve_ms_p50": Stat(_percentile(lat, 50), len(lat)),
            "serve_ms_p95": Stat(_percentile(lat, 95), len(lat)),
        }
        m.driver = {
            "throughput_kops_s": qps / 1e3,
            "latency_ms_p50": m.native["serve_ms_p50"].value,
            "latency_ms_tail": m.native["serve_ms_p95"].value,
            "io_amp": self._pool_read_amp(m.served),
        }
        return m

    @staticmethod
    def _pool_read_amp(served: list[Served]) -> float:
        """Engine bytes read per byte matched, once per distinct range asked.

        A property of the inputs (which ranges the seed drew), not of
        thread timing: it repeats exactly for a seed.
        """
        distinct = {(row[2], row[3]): (row[6], row[8]) for row in served}
        matched = sum(n for _b, n in distinct.values())
        return sum(b for b, _n in distinct.values()) / (matched * RECORD_BYTES) if matched else 0.0


# --------------------------------------------------------------- serve-live


class LiveWorkload(Workload):
    """One writer ingesting epochs 1-2 beside one closed-loop reader."""

    name = "serve-live"

    def setup(self) -> None:
        self.load = Load(self.seed, self.scale)
        rng = self.load.rng(5)
        # all distinct, so every request misses the result cache; ranges are
        # cut from epoch 1's keys (the middle of the drift), epoch=None asks
        # for the newest epoch committed at the service's pin
        self.ranges = [
            self.load.request(1, spec.LIVE_SELECTIVITY, anchor, None, client="reader")
            for anchor in rng.permutation(Load.anchors(self.scale.live_ranges, rng))
        ]
        # warm-up: a repetition cut short after its first live epoch
        self._repetition(self.scratch / "warmup", Measurement(), None, live_epochs=(1,))

    def _repetition(
        self, out_dir: Path, m: Measurement, timed: dict[str, list[float]] | None,
        live_epochs: tuple[int, ...] = (1, 2),
    ) -> None:
        assert self.load is not None
        session: Session | None = None
        reader: _Client | None = None
        try:
            session = Session(self.scale.nranks, out_dir)
            session.ingest_epoch(0, self.load.epochs[0])
            m.op(None)
            service = session.serve(workers=SERVE_WORKERS)
            reader = _Client(service, self.ranges)
            reader.thread.start()
            for epoch in live_epochs:
                e0 = time.perf_counter()
                session.ingest_epoch(epoch, self.load.epochs[epoch])
                elapsed = time.perf_counter() - e0
                m.op(None)
                if timed is not None:
                    timed["epoch_s"].append(elapsed)
            reader.stop.set()
            reader.join()
            if timed is not None:
                _add_service(m.service, service)
            session.close()
            if timed is not None:
                timed["bytes"].append(_dir_bytes(out_dir))
                timed["query_ms"].extend(reader.latencies_ms())
                _add_storage(m.storage, session)
                m.records_ingested += len(live_epochs) * self.scale.epoch_records
                m.epochs_ingested += len(live_epochs)
        except Exception as exc:
            m.op(f"live repetition raised {type(exc).__name__}: {exc}")
        finally:
            if reader is not None:
                reader.stop.set()
                reader.join()
                reader.account(m, self.oracle, timed=timed is not None)
            if session is not None:
                session.close()
            shutil.rmtree(out_dir, ignore_errors=True)

    def measure(self, scale: Scale, tracer: Tracer | NullTracer = NULL_TRACER) -> Measurement:
        m = Measurement()
        timed: dict[str, list[float]] = {"epoch_s": [], "query_ms": [], "bytes": []}
        for rep in range(scale.live_reps):
            tracer.tag(f"rep-{rep}")
            self._repetition(self.scratch / f"rep{rep}", m, timed)
        live_class = spec.class_name(spec.LIVE_SELECTIVITY)
        m.costs = [(live_class, *row[5:]) for row in m.served if not row[4]]
        if not timed["epoch_s"] or not timed["query_ms"]:
            return m
        krec_s = self.scale.epoch_records / statistics.median(timed["epoch_s"]) / 1e3
        rep_bytes = Load.NEPOCHS * self.scale.epoch_records * RECORD_BYTES
        m.work_s = statistics.median(timed["epoch_s"])
        m.native = {
            "live_ingest_krec_s": Stat(krec_s, len(timed["epoch_s"])),
            "live_query_ms_p50": Stat(_percentile(timed["query_ms"], 50), len(timed["query_ms"])),
            "live_query_ms_p95": Stat(_percentile(timed["query_ms"], 95), len(timed["query_ms"])),
        }
        m.driver = {
            "throughput_kops_s": krec_s,
            "latency_ms_p50": m.native["live_query_ms_p50"].value,
            "latency_ms_tail": m.native["live_query_ms_p95"].value,
            "io_amp": max(timed["bytes"]) / rep_bytes,
        }
        return m


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (IngestWorkload, SweepWorkload, HotWorkload, LiveWorkload)
}
