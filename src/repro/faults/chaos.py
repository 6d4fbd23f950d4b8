"""The ``carp-chaos`` harness: ingest → kill → recover → query loops.

One chaos *seed* is a complete durability trial.  A seeded
:class:`~repro.faults.plan.FaultPlan` is generated, a small CARP
workload is run against it on every executor backend, the injected
crash is taken, and recovery (``fsck --repair`` + ``KoiDB.open``)
must then prove the paper's §V-A contract:

* **no committed-data loss** — every epoch whose ``ingest_epoch``
  returned before the crash is durable, byte-for-byte, on every rank;
* **epoch-aligned truncation** — each recovered log is a byte prefix
  of the fault-free reference log, cut exactly at an epoch boundary;
* **cross-executor determinism** — the recovered logs, the post-redo
  logs, and all range-query results are bit-identical across the
  serial and process backends;
* **the log stays writable** — a redo epoch appended through
  ``KoiDB.open(recover=True)`` leaves a directory ``fsck`` calls clean.

A failing seed serializes everything needed to replay it (the plan
JSON, per-backend digests and fsck summaries) into a repro bundle.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.exec.api import ExecutorError
from repro.exec.factory import make_executor
from repro.faults.plan import SITE_SHUFFLE_SEND, FaultPlan
from repro.query.engine import PartitionedStore, QueryResult
from repro.storage.fsck import fsck
from repro.storage.koidb import KoiDB
from repro.storage.log import log_name

#: Chaos workload shape: small enough that one seed runs in well under
#: a second per backend, large enough to span several memtable flushes,
#: renegotiations, and manifest blocks per epoch.
CHAOS_RANKS = 3
CHAOS_EPOCHS = 2
CHAOS_RECORDS_PER_RANK = 160
CHAOS_REDO_RECORDS = 64
#: Epoch index and rid sequence base of the post-recovery redo epoch
#: (the sequence offset keeps redo rids disjoint from ingest rids).
CHAOS_REDO_EPOCH = CHAOS_EPOCHS
CHAOS_REDO_SEQ = 1 << 20

CHAOS_OPTIONS = CarpOptions(
    pivot_count=16,
    oob_capacity=64,
    renegotiations_per_epoch=2,
    memtable_records=48,
    round_records=64,
    value_size=8,
    shuffle_delay_rounds=1,
)

#: Executor backends every seed is run on: (name, workers).
CHAOS_BACKENDS: tuple[tuple[str, int | None], ...] = (
    ("serial", None),
    ("process", 2),
)

#: Inline crash-retry budget handed to every backend.  Matches the
#: plan generator's ``max_faults``: even a worst-case run of planned
#: task crashes on consecutive indices is always rescued, so a task
#: fault never makes one backend fail where another succeeds.
CHAOS_TASK_RETRIES = 3

_FULL_RANGE = (-1e30, 1e30)


# ------------------------------------------------------------- workload

def chaos_streams(seed: int, epoch: int) -> list[RecordBatch]:
    """The deterministic per-rank record streams for one epoch."""
    rng = np.random.default_rng([seed, epoch, 0xCA])
    streams = []
    for rank in range(CHAOS_RANKS):
        keys = rng.uniform(
            0.0, 1.0 + 0.25 * epoch, CHAOS_RECORDS_PER_RANK
        ).astype(np.float32)
        streams.append(
            RecordBatch.from_keys(
                keys,
                rank=rank,
                start_seq=epoch * 10_000,
                value_size=CHAOS_OPTIONS.value_size,
            )
        )
    return streams


def chaos_redo_batch(seed: int, rank: int) -> RecordBatch:
    """The redo-epoch batch appended after recovery for one rank."""
    rng = np.random.default_rng([seed, rank, 0xED])
    keys = rng.uniform(0.0, 1.0, CHAOS_REDO_RECORDS).astype(np.float32)
    return RecordBatch.from_keys(
        keys,
        rank=rank,
        start_seq=CHAOS_REDO_SEQ,
        value_size=CHAOS_OPTIONS.value_size,
    )


# -------------------------------------------------------------- digests

def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _digest_query(result: QueryResult) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.keys).tobytes())
    h.update(np.ascontiguousarray(result.rids).tobytes())
    return h.hexdigest()[:16]


def _log_bytes(directory: Path, rank: int) -> bytes:
    path = directory / log_name(rank)
    return path.read_bytes() if path.exists() else b""


# ------------------------------------------------------------- outcomes

@dataclass
class BackendOutcome:
    """Everything one backend's crash-recovery trial produced."""

    backend: str
    epochs_completed: int = 0
    crashed: bool = False
    error: str = ""
    fsck_summary: str = ""
    #: rank -> sha of the log right after ``fsck --repair``
    recovered: dict[int, str] = field(default_factory=dict)
    #: rank -> committed byte length after repair
    recovered_len: dict[int, int] = field(default_factory=dict)
    #: rank -> sha of the log after the redo epoch + final fsck
    final: dict[int, str] = field(default_factory=dict)
    #: epoch -> sha of the full-range query result after redo
    queries: dict[int, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


@dataclass
class SeedResult:
    """One chaos seed, across all backends."""

    seed: int
    plan: FaultPlan
    backends: dict[str, BackendOutcome] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and all(
            not b.failures for b in self.backends.values()
        )

    @property
    def crashed(self) -> bool:
        return any(b.crashed for b in self.backends.values())

    def all_failures(self) -> list[str]:
        out = list(self.failures)
        for name, outcome in sorted(self.backends.items()):
            out.extend(f"[{name}] {msg}" for msg in outcome.failures)
        return out

    def to_bundle(self) -> dict[str, object]:
        """A JSON-serializable repro bundle for this seed."""
        return {
            "seed": self.seed,
            "plan": json.loads(self.plan.to_json()),
            "failures": self.all_failures(),
            "backends": {
                name: {
                    "epochs_completed": b.epochs_completed,
                    "crashed": b.crashed,
                    "error": b.error,
                    "fsck": b.fsck_summary,
                    "recovered": {str(k): v for k, v in b.recovered.items()},
                    "final": {str(k): v for k, v in b.final.items()},
                    "queries": {str(k): v for k, v in b.queries.items()},
                }
                for name, b in sorted(self.backends.items())
            },
        }


# ------------------------------------------------------------ reference

@dataclass
class _Reference:
    """Fault-free ground truth: full logs and their epoch boundaries."""

    #: rank -> full fault-free log bytes
    log_bytes: dict[int, bytes]
    #: rank -> log offset after each committed epoch, starting at 0
    boundaries: dict[int, list[int]]
    #: epoch -> full-range query digest
    queries: dict[int, str]


def _run_reference(seed: int, plan: FaultPlan, directory: Path) -> _Reference:
    """Run the workload serially with only the (lossless) shuffle faults.

    Shuffle delay/drop faults perturb delivery timing but never lose
    data, and they fire in every backend's run identically — so this
    run's logs are the exact bytes every crashed run's committed prefix
    must match.
    """
    boundaries: dict[int, list[int]] = {
        r: [0] for r in range(CHAOS_RANKS)
    }
    run = CarpRun(
        CHAOS_RANKS, directory, CHAOS_OPTIONS,
        faults=plan.only(SITE_SHUFFLE_SEND),
    )
    with run:
        for epoch in range(CHAOS_EPOCHS):
            run.ingest_epoch(epoch, chaos_streams(seed, epoch))
            for rank, db in enumerate(run.koidbs):
                boundaries[rank].append(db.log.offset)
    log_bytes = {r: _log_bytes(directory, r) for r in range(CHAOS_RANKS)}
    queries: dict[int, str] = {}
    with PartitionedStore(directory) as store:
        for epoch in store.epochs():
            queries[epoch] = _digest_query(
                store.query(epoch, *_FULL_RANGE)
            )
    return _Reference(log_bytes=log_bytes, boundaries=boundaries,
                      queries=queries)


# ------------------------------------------------------------ the trial

def _run_backend(
    seed: int,
    plan: FaultPlan,
    backend: str,
    workers: int | None,
    directory: Path,
    reference: _Reference,
) -> BackendOutcome:
    outcome = BackendOutcome(backend=backend)
    executor = make_executor(
        backend, workers, task_retries=CHAOS_TASK_RETRIES
    )
    run = CarpRun(
        CHAOS_RANKS, directory, CHAOS_OPTIONS,
        executor=executor, faults=plan,
    )
    try:
        for epoch in range(CHAOS_EPOCHS):
            run.ingest_epoch(epoch, chaos_streams(seed, epoch))
            outcome.epochs_completed += 1
    except ExecutorError as exc:
        outcome.crashed = True
        outcome.error = repr(exc)
    finally:
        try:
            run.close()
        except (ExecutorError, RuntimeError) as exc:
            # a planned fault can also fire inside the close fan-out;
            # the process died either way — recovery takes it from here
            outcome.crashed = True
            if not outcome.error:
                outcome.error = repr(exc)
        executor.close()

    # ---- recover: fsck --repair must leave a clean directory
    report = fsck(directory, deep=True, repair=True)
    outcome.fsck_summary = report.summary()
    if not report.ok:
        benign_empty = outcome.epochs_completed == 0 and all(
            "no KoiDB logs" in err for err in report.errors
        )
        if not benign_empty:
            outcome.failures.append(
                f"fsck not clean after repair: {report.errors}"
            )

    # ---- committed prefix: byte-identical to the reference, cut at an
    # epoch boundary, holding every fully-ingested epoch
    for rank in range(CHAOS_RANKS):
        data = _log_bytes(directory, rank)
        outcome.recovered[rank] = _digest_bytes(data)
        outcome.recovered_len[rank] = len(data)
        bounds = reference.boundaries[rank]
        if len(data) not in bounds:
            outcome.failures.append(
                f"rank {rank}: recovered length {len(data)} is not an "
                f"epoch boundary (expected one of {bounds})"
            )
            continue
        committed_epochs = bounds.index(len(data))
        if committed_epochs < outcome.epochs_completed:
            outcome.failures.append(
                f"rank {rank}: COMMITTED DATA LOST — only "
                f"{committed_epochs} epoch(s) durable, "
                f"{outcome.epochs_completed} were committed"
            )
        if data != reference.log_bytes[rank][: len(data)]:
            outcome.failures.append(
                f"rank {rank}: recovered bytes diverge from the "
                "fault-free reference log"
            )

    # ---- redo: the recovered logs must accept a fresh epoch
    for rank in range(CHAOS_RANKS):
        db = KoiDB.open(rank, directory, CHAOS_OPTIONS)
        try:
            db.begin_epoch(CHAOS_REDO_EPOCH)
            db.ingest(chaos_redo_batch(seed, rank))
            db.finish_epoch()
        finally:
            db.close()
    final = fsck(directory, deep=True)
    if not final.ok:
        outcome.failures.append(
            f"fsck not clean after redo epoch: {final.errors}"
        )
    for rank in range(CHAOS_RANKS):
        outcome.final[rank] = _digest_bytes(_log_bytes(directory, rank))

    # ---- query every surviving epoch end-to-end
    with PartitionedStore(directory) as store:
        for epoch in store.epochs():
            outcome.queries[epoch] = _digest_query(
                store.query(epoch, *_FULL_RANGE)
            )
    for epoch in range(outcome.epochs_completed):
        if outcome.queries.get(epoch) != reference.queries.get(epoch):
            outcome.failures.append(
                f"epoch {epoch}: query digest diverges from the "
                "fault-free reference (committed data loss)"
            )
    return outcome


def run_seed(seed: int, base_dir: Path | str) -> SeedResult:
    """Run one full chaos trial (all backends) for ``seed``."""
    base_dir = Path(base_dir)
    plan = FaultPlan.generate(
        seed, CHAOS_RANKS, max_faults=CHAOS_TASK_RETRIES,
        epochs=CHAOS_EPOCHS,
    )
    result = SeedResult(seed=seed, plan=plan)
    ref_dir = base_dir / f"seed{seed}-ref"
    reference = _run_reference(seed, plan, ref_dir)
    for backend, workers in CHAOS_BACKENDS:
        directory = base_dir / f"seed{seed}-{backend}"
        result.backends[backend] = _run_backend(
            seed, plan, backend, workers, directory, reference
        )
    _check_cross_backend(result)
    return result


def _check_cross_backend(result: SeedResult) -> None:
    """Every backend must have produced bit-identical outcomes."""
    names = [name for name, _ in CHAOS_BACKENDS]
    first = result.backends[names[0]]
    for name in names[1:]:
        other = result.backends[name]
        for label, a, b in (
            ("epochs_completed", first.epochs_completed,
             other.epochs_completed),
            ("crashed", first.crashed, other.crashed),
            ("recovered logs", first.recovered, other.recovered),
            ("final logs", first.final, other.final),
            ("query results", first.queries, other.queries),
        ):
            if a != b:
                result.failures.append(
                    f"cross-executor divergence in {label}: "
                    f"{names[0]}={a!r} vs {name}={b!r}"
                )


def run_seeds(
    seeds: list[int],
    base_dir: Path | str,
    bundle_dir: Path | str | None = None,
    keep: bool = False,
    progress: Callable[[SeedResult], None] | None = None,
) -> list[SeedResult]:
    """Run many seeds; write repro bundles for failures.

    ``progress`` is an optional callable invoked with each finished
    :class:`SeedResult`.  Scratch directories for passing seeds are
    removed unless ``keep`` is set.
    """
    base_dir = Path(base_dir)
    base_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for seed in seeds:
        result = run_seed(seed, base_dir)
        results.append(result)
        if not result.ok and bundle_dir is not None:
            bundle = Path(bundle_dir)
            bundle.mkdir(parents=True, exist_ok=True)
            target = bundle / f"chaos-seed-{seed}.json"
            target.write_text(json.dumps(result.to_bundle(), indent=2))
        if result.ok and not keep:
            for backend, _ in CHAOS_BACKENDS:
                shutil.rmtree(
                    base_dir / f"seed{seed}-{backend}", ignore_errors=True
                )
            shutil.rmtree(base_dir / f"seed{seed}-ref", ignore_errors=True)
        if progress is not None:
            progress(result)
    return results
