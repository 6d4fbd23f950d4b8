"""Module-level worker task functions for the CARP hot paths.

Every task here follows the executor task contract
(:mod:`repro.exec.api`): plain top-level functions taking the sticky
per-shard ``state`` mapping first, deriving their output only from
``state`` and arguments (rule P601), and recording metrics and spans —
when asked to — into a private ``Obs.deltas()`` stack whose snapshot
delta and drained span records are returned as plain data (rule O502).
Task functions must stay at module level so
:class:`~repro.exec.pools.ProcessExecutor` can pickle them by
reference.

The ingest task is a *command replay*: ``CarpRun`` routing never
depends on KoiDB responses, so the driver can buffer each destination
rank's command stream (begin / own / ingest / finish / close) and have
the owning shard replay it verbatim — inline on the serial backend, in
a worker process on the pool — producing the same log bytes either way.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.exec.api import WorkerCrashError, stateful_task
from repro.faults.plan import SITE_TASK, FaultInjector, FaultSpec
from repro.obs import NULL_OBS, Obs, SpanRecord, snapshot_delta
from repro.storage.koidb import KoiDB, KoiDBStats
from repro.storage.log import LogReader
from repro.storage.manifest import ManifestEntry
from repro.storage.sstable import match_rows

# ----------------------------------------------------------------- ingest

#: Command verbs of the KoiDB replay stream, in the order CarpRun
#: emits them: ("begin", epoch) | ("own", lo, hi, inclusive_hi) |
#: ("ingest", RecordBatch) | ("finish",) | ("close",) |
#: ("ctx", request_id) — the last switches the worker obs stack's
#: request attribution and never touches storage state
KoiDBCommand = tuple[Any, ...]


@dataclasses.dataclass(frozen=True)
class KoiDBApplyResult:
    """What a shard worker reports back after replaying commands."""

    rank: int
    stats: KoiDBStats
    log_offset: int
    metrics: dict[str, object]
    #: span records drained from the rank-local buffering tracer since
    #: the previous call (rank-local virtual timestamps; see
    #: :class:`repro.obs.buffer.BufferingTracer`)
    spans: list[SpanRecord]
    #: the request context in effect when the replay batch finished
    #: (the newest ``("ctx", ...)`` command seen), attributing this
    #: result's metric delta to its originating request
    request_id: str | None = None


@stateful_task
def koidb_apply(
    state: dict[str, Any],
    rank: int,
    directory: str,
    options: CarpOptions,
    record_obs: bool,
    commands: list[KoiDBCommand],
    fault_specs: tuple[FaultSpec, ...] = (),
) -> KoiDBApplyResult:
    """Replay a batch of KoiDB commands on the shard owning ``rank``.

    The first call opens the rank's KoiDB in shard state (truncating
    the rank log); subsequent calls reuse it, so the log grows as one contiguous
    append stream.  Returns a copy of the cumulative ``KoiDBStats``,
    the log offset, and the metrics and trace spans recorded since the
    previous call (the spans on the rank's local virtual timeline).

    ``fault_specs`` arms this rank's fault sites.  The ``exec.task``
    site is checked once per call, *before* any command is applied —
    so a crash here leaves shard state untouched and an executor-level
    retry replays the exact same call idempotently.  Storage-site specs
    ride into the KoiDB on first open.

    Marked :func:`~repro.exec.api.stateful_task`: the open KoiDB lives
    in sticky shard state, so after a real worker-process death this
    task must *not* be resubmitted to a fresh worker — re-opening the
    rank log with the default ``recover=False`` would truncate every
    committed epoch.  ``ProcessExecutor`` fails the drain instead and
    leaves the log on disk for ``KoiDB.open(recover=True)``.
    """
    db: KoiDB | None = state.get("koidb")
    if fault_specs and "task_injector" not in state:
        state["task_injector"] = FaultInjector(fault_specs)
    task_injector: FaultInjector | None = state.get("task_injector")
    if task_injector is not None:
        spec = task_injector.check(SITE_TASK)
        if spec is not None:
            raise WorkerCrashError(
                f"injected worker crash at task {spec.index} for rank {rank}"
            )
    if db is None:
        if state.get("closed"):
            # re-opening would truncate the rank log a closed KoiDB
            # already finalized
            raise RuntimeError(f"KoiDB for rank {rank} was already closed")
        obs = Obs.deltas() if record_obs else NULL_OBS
        db = KoiDB(rank, Path(directory), options, obs=obs, faults=fault_specs)
        state["koidb"] = db
        state["obs"] = obs
        state["prev_snapshot"] = obs.metrics.snapshot()
    elif db.rank != rank or db.directory != Path(directory):
        raise RuntimeError(
            f"shard state collision: worker holds KoiDB rank {db.rank} at "
            f"{db.directory}, got commands for rank {rank} at {directory} "
            "(one executor instance per CarpRun)"
        )
    for command in commands:
        verb = command[0]
        if verb == "ingest":
            db.ingest(command[1])
        elif verb == "own":
            db.set_owned_range(command[1], command[2], command[3])
        elif verb == "begin":
            db.begin_epoch(command[1])
        elif verb == "finish":
            db.finish_epoch()
        elif verb == "close":
            db.close()
            state.pop("koidb", None)
            state["closed"] = True
        elif verb == "ctx":
            db.set_request(command[1])
        else:
            raise ValueError(f"unknown KoiDB command {verb!r}")
    obs = state["obs"]
    current = obs.metrics.snapshot()
    delta = snapshot_delta(current, state["prev_snapshot"])
    state["prev_snapshot"] = current
    return KoiDBApplyResult(
        rank=rank,
        stats=dataclasses.replace(db.stats),
        log_offset=db.log.offset,
        metrics=delta,
        spans=obs.tracer.drain(),
        request_id=obs.request_id,
    )


# ------------------------------------------------------------------ query
# not shard tasks: PartitionedStore calls probe_entries inline, on every
# backend.  They stay in this module because the ledger's tracer wraps
# ``repro.exec.work.probe_entries`` by name.

@dataclasses.dataclass(frozen=True)
class LogProbeResult:
    """Per-log probe output, in the log's candidate-entry order."""

    #: bytes the probe actually touched (Σ of the reader's spans)
    bytes_read: int
    scanned: int
    #: spans the probe actually issued
    requests: int
    #: candidate SSTs probed, and the bytes a client that fetches each
    #: of them whole would move — what the I/O model prices
    ssts: int
    candidate_bytes: int
    runs: list[RecordBatch]
    key_runs: list[np.ndarray]

    @property
    def matched(self) -> int:
        """Records that survived the range filter in this log.

        The per-log share of ``QueryCost.records_matched``: the merged
        result concatenates every log's runs, so the per-log counts sum
        exactly to the query total (the reconciliation ``carp-explain``
        relies on).
        """
        return (sum(len(r) for r in self.runs)
                + sum(len(k) for k in self.key_runs))


def probe_entries(
    reader: LogReader,
    entries: list[ManifestEntry],
    lo: float,
    hi: float,
    keys_only: bool,
) -> LogProbeResult:
    """Read and range-filter one log's candidate SSTs for a query.

    The one per-entry probe loop: ``PartitionedStore`` calls it inline
    per open reader, on every backend, and concatenates the per-log
    results in reader-index order.

    Full-record probes are keys-first (``LogReader.read_sst`` with
    bounds): value bytes are fetched only for matched rows.  Bytes and
    requests are summed from what each read call reports it touched —
    never from the reader's shared counters, which other threads of a
    serving plane advance too.
    """
    bytes_read = 0
    requests = 0
    candidate_bytes = 0
    scanned = 0
    runs: list[RecordBatch] = []
    key_runs: list[np.ndarray] = []
    for entry in entries:
        if keys_only:
            info, sst_keys, nbytes = reader.read_sst_keys(entry)
            # a keys-only client fetches exactly this prefix: the
            # touched bytes are the priced bytes
            bytes_read += nbytes
            candidate_bytes += nbytes
            requests += 1
            scanned += entry.count
            matched = sst_keys[match_rows(info, sst_keys, lo, hi)]
            if len(matched):
                key_runs.append(matched)
        else:
            read = reader.read_sst(entry, lo, hi)
            bytes_read += read.bytes_read
            requests += read.requests
            candidate_bytes += entry.length
            scanned += entry.count
            if len(read.batch):
                runs.append(read.batch)
    return LogProbeResult(
        bytes_read=bytes_read,
        scanned=scanned,
        requests=requests,
        ssts=len(entries),
        candidate_bytes=candidate_bytes,
        runs=runs,
        key_runs=key_runs,
    )


# ------------------------------------------------------------- compaction

def compact_epoch_task(
    state: dict[str, Any],
    in_dir: str,
    out_dir: str,
    epoch: int,
    sst_records: int,
) -> str:
    """Compact one whole epoch (the ``compact_all_epochs`` fan-out unit).

    Each epoch writes into its own output directory, so concurrent
    epochs never touch the same file.
    """
    from repro.storage.compactor import compact_epoch

    return str(compact_epoch(Path(in_dir), Path(out_dir), epoch, sst_records))
