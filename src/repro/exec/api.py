"""The :class:`Executor` contract and its in-process serial backend.

CARP's per-rank logs exist precisely so that work on them can be
"processed in parallel" (paper §VII-A); this module defines the seam
that makes that executable for ingest and compaction (query
parallelism stays priced by ``IOModel``).  An executor runs
*shard tasks*: plain module-level functions invoked as
``fn(state, *args)`` where ``state`` is a mutable mapping that is

* **sticky** — every task submitted for the same shard key sees the
  same mapping, for the lifetime of the executor, and
* **exclusive** — owned by exactly one worker, so no two tasks ever
  touch it concurrently (shared-nothing by construction).

Tasks for one shard execute in submission order; tasks for different
shards may run concurrently.  :meth:`Executor.drain` is the barrier
that returns every result since the previous drain, in submission
order, which is what lets callers merge worker output back
deterministically no matter how execution interleaved.

Determinism contract (see ``docs/PARALLELISM.md``): a task function
must derive its output purely from ``state`` and its arguments — never
from module-level mutable state (lint rule P601) — and must not build
recording observability stacks (rule O502); workers report metrics as
plain deltas that the driver merges in shard order.
"""

from __future__ import annotations

import abc
import traceback
from collections.abc import Callable, Sequence
from typing import Any

#: Signature every shard task follows: ``fn(state, *args) -> result``.
TaskFn = Callable[..., Any]


class ExecutorError(RuntimeError):
    """Base class for executor failures."""


class WorkerTaskError(ExecutorError):
    """A shard task raised; carries the worker-side traceback text."""

    def __init__(self, shard: int, cause: str, traceback_text: str = "") -> None:
        self.shard = shard
        self.cause = cause
        self.traceback_text = traceback_text
        detail = f"\n--- worker traceback ---\n{traceback_text}" if traceback_text else ""
        super().__init__(f"task on shard {shard} failed: {cause}{detail}")


class WorkerCrashError(ExecutorError):
    """A worker crashed (process death or an injected ``exec.task`` fault).

    Uniquely among task failures this one is *retryable*: executors
    built with ``task_retries > 0`` re-run the crashed task inline on
    its owning worker, against the same sticky state, before giving
    up.  Task functions that can raise it must therefore be idempotent
    up to their crash point (``koidb_apply`` checks its fault site
    before applying any command, so a retry replays nothing twice).
    """


def stateful_task(fn: TaskFn) -> TaskFn:
    """Mark a task whose sticky shard state cannot be rebuilt from scratch.

    Decorator for task functions that accumulate per-shard state which
    a *fresh* worker cannot reconstruct safely — e.g. ``koidb_apply``,
    whose open :class:`~repro.storage.koidb.KoiDB` would, on a blind
    re-open in a replacement worker, truncate the rank log and destroy
    previously committed epochs.  :class:`~repro.exec.pools.ProcessExecutor`
    refuses to resubmit marked tasks after a real worker-process death
    and fails the drain with :class:`WorkerCrashError` instead; the
    durable state on disk is left untouched for
    ``KoiDB.open(recover=True)`` / ``fsck --repair``.
    """
    fn.carp_stateful = True  # type: ignore[attr-defined]
    return fn


def is_stateful_task(fn: TaskFn) -> bool:
    """True when ``fn`` was marked with :func:`stateful_task`."""
    return bool(getattr(fn, "carp_stateful", False))


def worker_of(shard: int, workers: int) -> int:
    """The worker index that owns ``shard`` (sticky modulo assignment).

    Shard ownership never migrates: all tasks for one shard run on
    ``shard % workers``, which is what keeps per-shard state (an open
    KoiDB) local to exactly one worker.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if shard < 0:
        raise ValueError("shard keys must be non-negative")
    return shard % workers


class Executor(abc.ABC):
    """Deterministic shard-task executor (see module docstring)."""

    #: Human-readable backend name (``serial`` / ``process``).
    name: str = ""
    #: Number of workers tasks are spread across.
    workers: int = 1
    #: Per-task retry budget for :class:`WorkerCrashError` (0 = fail fast).
    #: Retries run inline on the owning worker, preserving sticky shard
    #: ownership and per-shard submission order.
    task_retries: int = 0
    #: Total crash retries performed over the executor's lifetime.
    retries_done: int = 0

    @abc.abstractmethod
    def submit(self, shard: int, fn: TaskFn, /, *args: Any) -> None:
        """Queue ``fn(state, *args)`` on the worker owning ``shard``."""

    @abc.abstractmethod
    def drain(self) -> list[Any]:
        """Wait for every task submitted since the last drain.

        Returns their results in submission order.  If any task raised,
        the submission-order-first failure is re-raised as
        :class:`WorkerTaskError` (remaining results are discarded; the
        executor stays usable).
        """

    def map(self, fn: TaskFn, arg_tuples: Sequence[tuple[Any, ...]]) -> list[Any]:
        """Submit one task per argument tuple and drain.

        Task ``i`` is keyed by shard ``i``, which spreads independent
        items across all workers.
        """
        for i, args in enumerate(arg_tuples):
            self.submit(i, fn, *args)
        return self.drain()

    @abc.abstractmethod
    def close(self) -> None:
        """Release workers and per-shard state.  Idempotent."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} workers={self.workers}>"


class SerialExecutor(Executor):
    """Run every task inline on the calling thread.

    The default backend everywhere.  ``submit`` executes the task
    before returning, against the same sticky per-shard state and with
    the same failure semantics as the process pool: a failed task does
    not stop later submissions from running, and ``drain`` raises the
    submission-order-first failure.
    """

    name = "serial"
    workers = 1

    def __init__(self, task_retries: int = 0) -> None:
        if task_retries < 0:
            raise ValueError("task_retries must be >= 0")
        self._states: dict[int, dict[str, Any]] = {}
        self._results: list[Any] = []
        self._failure: ExecutorError | None = None
        self.task_retries = task_retries
        self.retries_done = 0

    def submit(self, shard: int, fn: TaskFn, /, *args: Any) -> None:
        state = self._states.setdefault(shard, {})
        retries = 0
        failure: ExecutorError
        while True:
            try:
                self._results.append(fn(state, *args))
                return
            except WorkerCrashError as exc:
                if retries < self.task_retries:
                    retries += 1
                    self.retries_done += 1
                    continue
                failure = WorkerCrashError(
                    f"task on shard {shard} crashed"
                    f"{f' after {retries} retries' if retries else ''}: "
                    f"{exc}"
                )
            except Exception as exc:  # noqa: BLE001 - uniform worker semantics
                failure = WorkerTaskError(
                    shard, repr(exc), traceback.format_exc()
                )
            # later tasks keep running, as they would on a pool worker;
            # drain raises the first failure in submission order
            if self._failure is None:
                self._failure = failure
            return

    def drain(self) -> list[Any]:
        results, self._results = self._results, []
        failure, self._failure = self._failure, None
        if failure is not None:
            raise failure
        return results

    def close(self) -> None:
        self._states.clear()
        self._results.clear()
        self._failure = None
