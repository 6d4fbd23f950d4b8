"""The ``carp-chaos`` harness: ingest → kill → recover → query loops.

One chaos *seed* is a complete durability trial.  A seeded
:class:`~repro.faults.plan.FaultPlan` is generated, a small CARP
workload is run against it, the injected crash is taken, and recovery
(``fsck --repair`` + ``KoiDB.open``) must then prove the paper's §V-A
contract:

* **no committed-data loss** — every epoch whose ``ingest_epoch``
  returned before the crash is durable, byte-for-byte, on every rank;
* **epoch-aligned truncation** — each recovered log is a byte prefix
  of the fault-free reference log, cut exactly at an epoch boundary;
* **the log stays writable** — a redo epoch appended through
  ``KoiDB.open(recover=True)`` leaves a directory ``fsck`` calls clean.

A failing seed serializes everything needed to replay it (the plan
JSON, log and query digests and the fsck summary) into a repro bundle.
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
from repro.faults.plan import SITE_SHUFFLE_SEND, FaultPlan, InjectedCrashError
from repro.query.engine import PartitionedStore, QueryResult
from repro.storage.fsck import fsck
from repro.storage.koidb import KoiDB
from repro.storage.log import log_name

#: Chaos workload shape: small enough that one seed runs in well under
#: a second, large enough to span several memtable flushes,
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

#: Most faults one seed's plan draws.
CHAOS_MAX_FAULTS = 3

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
class SeedResult:
    """Everything one seed's crash-recovery trial produced."""

    seed: int
    plan: FaultPlan
    epochs_completed: int = 0
    crashed: bool = False
    error: str = ""
    fsck_summary: str = ""
    #: rank -> sha of the log right after ``fsck --repair``
    recovered: dict[int, str] = field(default_factory=dict)
    #: rank -> sha of the log after the redo epoch + final fsck
    final: dict[int, str] = field(default_factory=dict)
    #: epoch -> sha of the full-range query result after redo
    queries: dict[int, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_bundle(self) -> dict[str, object]:
        """A JSON-serializable repro bundle for this seed."""
        return {
            "seed": self.seed,
            "plan": json.loads(self.plan.to_json()),
            "failures": list(self.failures),
            "epochs_completed": self.epochs_completed,
            "crashed": self.crashed,
            "error": self.error,
            "fsck": self.fsck_summary,
            "recovered": {str(k): v for k, v in self.recovered.items()},
            "final": {str(k): v for k, v in self.final.items()},
            "queries": {str(k): v for k, v in self.queries.items()},
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
    """Run the workload with only the (lossless) shuffle faults.

    Shuffle delay/drop faults perturb delivery timing but never lose
    data, and they fire in the faulted run identically — so this run's
    logs are the exact bytes the crashed run's committed prefix must
    match.
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

def _run_faulted(
    result: SeedResult, directory: Path, reference: _Reference
) -> None:
    """Run ``result.plan`` to its crash, recover, redo, and check it."""
    seed = result.seed
    run = CarpRun(CHAOS_RANKS, directory, CHAOS_OPTIONS, faults=result.plan)
    try:
        for epoch in range(CHAOS_EPOCHS):
            run.ingest_epoch(epoch, chaos_streams(seed, epoch))
            result.epochs_completed += 1
    except InjectedCrashError as exc:
        result.crashed = True
        result.error = repr(exc)
    finally:
        try:
            run.close()
        except RuntimeError as exc:
            # a crashed log refuses further writes, so its close can
            # fail too; the process died either way — recovery takes
            # it from here
            result.crashed = True
            if not result.error:
                result.error = repr(exc)

    # ---- recover: fsck --repair must leave a clean directory
    report = fsck(directory, deep=True, repair=True)
    result.fsck_summary = report.summary()
    if not report.ok:
        benign_empty = result.epochs_completed == 0 and all(
            "no KoiDB logs" in err for err in report.errors
        )
        if not benign_empty:
            result.failures.append(
                f"fsck not clean after repair: {report.errors}"
            )

    # ---- committed prefix: byte-identical to the reference, cut at an
    # epoch boundary, holding every fully-ingested epoch
    for rank in range(CHAOS_RANKS):
        data = _log_bytes(directory, rank)
        result.recovered[rank] = _digest_bytes(data)
        bounds = reference.boundaries[rank]
        if len(data) not in bounds:
            result.failures.append(
                f"rank {rank}: recovered length {len(data)} is not an "
                f"epoch boundary (expected one of {bounds})"
            )
            continue
        committed_epochs = bounds.index(len(data))
        if committed_epochs < result.epochs_completed:
            result.failures.append(
                f"rank {rank}: COMMITTED DATA LOST — only "
                f"{committed_epochs} epoch(s) durable, "
                f"{result.epochs_completed} were committed"
            )
        if data != reference.log_bytes[rank][: len(data)]:
            result.failures.append(
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
        result.failures.append(
            f"fsck not clean after redo epoch: {final.errors}"
        )
    for rank in range(CHAOS_RANKS):
        result.final[rank] = _digest_bytes(_log_bytes(directory, rank))

    # ---- query every surviving epoch end-to-end
    with PartitionedStore(directory) as store:
        for epoch in store.epochs():
            result.queries[epoch] = _digest_query(
                store.query(epoch, *_FULL_RANGE)
            )
    for epoch in range(result.epochs_completed):
        if result.queries.get(epoch) != reference.queries.get(epoch):
            result.failures.append(
                f"epoch {epoch}: query digest diverges from the "
                "fault-free reference (committed data loss)"
            )


def run_seed(seed: int, base_dir: Path | str) -> SeedResult:
    """Run one full chaos trial for ``seed``."""
    base_dir = Path(base_dir)
    plan = FaultPlan.generate(
        seed, CHAOS_RANKS, max_faults=CHAOS_MAX_FAULTS, epochs=CHAOS_EPOCHS,
    )
    result = SeedResult(seed=seed, plan=plan)
    reference = _run_reference(seed, plan, base_dir / f"seed{seed}-ref")
    _run_faulted(result, base_dir / f"seed{seed}-run", reference)
    return result


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
            for name in ("ref", "run"):
                shutil.rmtree(base_dir / f"seed{seed}-{name}", ignore_errors=True)
        if progress is not None:
            progress(result)
    return results
