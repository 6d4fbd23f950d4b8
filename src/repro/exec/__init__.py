"""``repro.exec`` — shared-nothing parallel execution backends.

CARP's per-rank logs are a natural shard boundary (paper §VII-A: the
layout exists to "allow for parallel processing of a query"); this
package makes that executable.  An :class:`Executor` runs *shard
tasks* — module-level functions bound to sticky, worker-exclusive
per-shard state — with two interchangeable backends:

* :class:`SerialExecutor` — the default; runs each task inline at
  ``submit``.
* :class:`ProcessExecutor` — a process pool; fully shared-nothing,
  sidesteps the GIL at a pickling cost.

Ingest has one path: ``CarpRun`` buffers each rank's KoiDB command
stream and ``koidb_apply`` replays it, inline or on a worker.  The
write-side hot paths (``CarpRun.ingest_epoch``, ``compact_all_epochs``)
accept ``executor=`` exactly like ``obs=`` and produce bit-identical
output on both backends; ``CARP_EXECUTOR`` / ``CARP_WORKERS`` select a
backend environment-wide.  Queries never enter an executor:
``PartitionedStore`` probes inline through its own readers.  The model, the
ownership rules, and the determinism contract are documented in
``docs/PARALLELISM.md``; carp-lint's P6xx family enforces the worker
task constraints.
"""

from __future__ import annotations

from repro.exec.api import (
    Executor,
    ExecutorError,
    SerialExecutor,
    TaskFn,
    WorkerCrashError,
    WorkerTaskError,
    is_stateful_task,
    stateful_task,
    worker_of,
)
from repro.exec.factory import (
    EXECUTOR_KINDS,
    add_executor_args,
    executor_from_args,
    make_executor,
    resolve_executor,
)
from repro.exec.pools import ProcessExecutor

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "TaskFn",
    "worker_of",
    "stateful_task",
    "is_stateful_task",
    "ExecutorError",
    "WorkerTaskError",
    "WorkerCrashError",
    "EXECUTOR_KINDS",
    "make_executor",
    "resolve_executor",
    "add_executor_args",
    "executor_from_args",
]
