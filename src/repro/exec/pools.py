"""The process-pool executor with sticky shard ownership.

Each worker owns a private task queue and the shards assigned to it by
:func:`~repro.exec.api.worker_of` never migrate, so per-shard state (an
open KoiDB) is touched by exactly one worker for the
executor's lifetime.  Results flow back over a single shared queue
tagged with submission tickets; :meth:`ProcessExecutor.drain` reorders
them into submission order, which is the whole reason callers can merge
worker output deterministically.

``ProcessExecutor`` is fully shared-nothing: task functions must be
module-level (pickled by reference; lint rule P601 keeps them free of
module-level mutable state) and arguments/results cross a pickle
boundary.  See ``docs/PARALLELISM.md`` for what that costs.

Workers spawn lazily on the first submit, so constructing an executor
— e.g. the default from ``CARP_EXECUTOR`` — costs nothing until it is
actually used.
"""

from __future__ import annotations

import multiprocessing
import queue
import traceback
from typing import Any

from repro.exec.api import (
    Executor,
    ExecutorError,
    TaskFn,
    WorkerCrashError,
    WorkerTaskError,
    is_stateful_task,
    worker_of,
)

# Seconds between liveness checks while a drain waits on the result
# queue.  Purely a polling cadence for failure detection; results are
# consumed the moment they arrive.
_POLL_TIMEOUT = 0.1

_OK = "ok"
_ERR = "err"
_CRASH = "crash"


def _run_task(
    states: dict[int, dict[str, Any]],
    result_q: Any,
    item: tuple[int, int, int, TaskFn, tuple[Any, ...]],
    task_retries: int,
) -> None:
    """Execute one ticketed task, retrying crashes inline.

    Retrying *inside* the worker (rather
    than re-enqueueing at the driver) preserves per-shard submission
    order: a retried task still finishes before any later task for the
    same shard is picked up.  Every message echoes the submission's
    attempt number (so the drain can discard results from a superseded
    submission after a worker respawn) and carries the retry count as
    its last field so drains can account for recovery work.
    """
    tid, attempt, shard, fn, args = item
    state = states.setdefault(shard, {})
    retries = 0
    while True:
        try:
            value = fn(state, *args)
        except WorkerCrashError as exc:
            if retries < task_retries:
                retries += 1
                continue
            result_q.put(
                (_CRASH, tid, attempt, shard, repr(exc),
                 traceback.format_exc(), retries)
            )
            return
        except Exception as exc:  # noqa: BLE001 - reported via the queue
            result_q.put(
                (_ERR, tid, attempt, shard, repr(exc),
                 traceback.format_exc(), retries)
            )
            return
        else:
            result_q.put((_OK, tid, attempt, value, retries))
            return


def _process_worker_main(task_q: Any, result_q: Any, task_retries: int = 0) -> None:
    """Worker loop run inside every :class:`ProcessExecutor` child.

    Everything crossing the queues is pickled, so task results must
    serialize cleanly and task functions must be importable
    module-level callables.
    """
    states: dict[int, dict[str, Any]] = {}
    while True:
        item = task_q.get()
        if item is None:
            return
        _run_task(states, result_q, item, task_retries)


class ProcessExecutor(Executor):
    """Shard tasks on a pool of worker processes (shared-nothing).

    Each worker process owns the per-shard state for its shards; tasks
    and results cross a pickle boundary.  This sidesteps the GIL
    entirely, at the price of serialization and process startup — see
    ``docs/PARALLELISM.md`` for the measured trade-off.
    """

    name = "process"

    def __init__(self, workers: int, task_retries: int = 0) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if task_retries < 0:
            raise ValueError("task_retries must be >= 0")
        self.workers = workers
        self.task_retries = task_retries
        self.retries_done = 0
        self._closed = False
        self._next_tid = 0
        # tid -> (attempt, shard, fn, args) for every task since the
        # last drain; keeping the full task lets a respawn resubmit
        # after a real worker death, and the attempt counter lets the
        # drain discard a result the dead worker managed to enqueue
        # before dying (the resubmission would otherwise be
        # double-counted).
        self._pending: dict[int, tuple[int, int, TaskFn, tuple[Any, ...]]] = {}
        # the drain in progress exposes its completed tickets here so
        # _check_workers_alive knows what not to resubmit
        self._drain_done: dict[int, tuple[Any, ...]] = {}
        # fork avoids re-importing the world per worker where the OS
        # supports it; tasks are spawn-safe regardless (P601 bans the
        # module-global state that fork would otherwise paper over).
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._task_qs: list[Any] = []
        self._result_q: Any = None
        self._procs: list[Any] = []
        self._respawns_left = task_retries

    def _spawn(self, worker: int) -> tuple[Any, Any]:
        """Start one worker process on a fresh task queue."""
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_process_worker_main,
            args=(task_q, self._result_q, self.task_retries),
            name=f"carp-exec-{worker}",
            daemon=True,
        )
        proc.start()
        return task_q, proc

    # --------------------------------------------------------- Executor

    def submit(self, shard: int, fn: TaskFn, /, *args: Any) -> None:
        if self._closed:
            raise ExecutorError(f"{type(self).__name__} is closed")
        if not self._procs:  # workers spawn lazily, on first use
            self._result_q = self._ctx.Queue()
            for i in range(self.workers):
                task_q, proc = self._spawn(i)
                self._task_qs.append(task_q)
                self._procs.append(proc)
        tid = self._next_tid
        self._next_tid += 1
        self._pending[tid] = (0, shard, fn, args)
        self._task_qs[worker_of(shard, self.workers)].put(
            (tid, 0, shard, fn, args)
        )

    def drain(self) -> list[Any]:
        outcomes: dict[int, tuple[Any, ...]] = {}
        self._drain_done = outcomes
        while len(outcomes) < len(self._pending):
            try:
                msg = self._result_q.get(timeout=_POLL_TIMEOUT)
            except queue.Empty:
                self._check_workers_alive()
                continue
            tid, attempt = msg[1], msg[2]
            current = self._pending.get(tid)
            if current is None or current[0] != attempt:
                # unknown ticket (a leftover from a past drain) or a
                # stale attempt (the task was resubmitted after its
                # worker died mid-report): drop it, the live attempt's
                # result is the one that counts
                continue
            outcomes[tid] = msg
        pending, self._pending = self._pending, {}
        self._drain_done = {}
        failure: ExecutorError | None = None
        results: list[Any] = []
        for tid in sorted(pending):
            msg = outcomes[tid]
            self.retries_done += msg[-1]
            if failure is not None:
                continue
            if msg[0] == _OK:
                results.append(msg[3])
            elif msg[0] == _CRASH:
                failure = WorkerCrashError(
                    f"task on shard {msg[3]} crashed"
                    f"{f' after {msg[6]} retries' if msg[6] else ''}: "
                    f"{msg[4]}"
                )
            else:
                failure = WorkerTaskError(msg[3], msg[4], msg[5])
        if failure is not None:
            raise failure
        return results

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._shutdown()
        self._pending.clear()

    # ----------------------------------------------------- worker death

    def _unfinished_for(self, worker: int) -> list[int]:
        """Tickets owned by ``worker`` with no result received yet."""
        return [
            tid
            for tid in sorted(self._pending)
            if tid not in self._drain_done
            and worker_of(self._pending[tid][1], self.workers) == worker
        ]

    def _check_workers_alive(self) -> None:
        """Respawn dead workers within budget, else fail the drain."""
        dead = [
            i for i, proc in enumerate(self._procs)
            if not proc.is_alive() and proc.exitcode not in (0, None)
        ]
        if not dead:
            return
        detail = ", ".join(
            f"{self._procs[i].name} (exit {self._procs[i].exitcode})"
            for i in dead
        )
        # A stateful task's per-shard state (an open KoiDB) died with
        # the worker and cannot be rebuilt from scratch: re-running it
        # in a fresh worker would re-open — and truncate — a rank log
        # that already holds committed epochs.  Fail the drain instead;
        # the logs on disk stay exactly as the dead worker left them,
        # recoverable via ``KoiDB.open(recover=True)`` / fsck --repair.
        stateful = sorted(
            {
                self._pending[tid][2].__name__
                for worker in dead
                for tid in self._unfinished_for(worker)
                if is_stateful_task(self._pending[tid][2])
            }
        )
        if stateful:
            self._closed = True
            self._shutdown()
            raise WorkerCrashError(
                f"worker process died with stateful task(s) "
                f"{', '.join(stateful)} in flight ({detail}); their "
                "per-shard state cannot be rebuilt in a fresh worker, "
                "so the drain fails rather than resubmitting — recover "
                "the rank logs with KoiDB.open(recover=True)"
            )
        if self._respawns_left >= len(dead):
            for worker in dead:
                self._respawns_left -= 1
                self._respawn(worker)
            return
        self._closed = True
        self._shutdown()
        raise WorkerCrashError(
            f"worker process died without reporting a result: {detail}"
        )

    def _respawn(self, worker: int) -> None:
        """Replace a dead worker and resubmit its unfinished tasks.

        Per-shard state in the dead process is gone, so this only runs
        for stateless tasks (``_check_workers_alive`` fails the drain
        when a task marked via :func:`~repro.exec.api.stateful_task`
        is in flight on the dead worker).  The worker gets a *fresh*
        task queue so tasks buffered in the dead worker's queue are not
        executed twice, and every resubmission bumps the ticket's
        attempt counter so a result the dead worker enqueued just
        before dying is discarded by the drain instead of being
        double-counted.  A task the worker died inside may still
        re-run, which is the standard at-least-once caveat of crash
        retry.
        """
        task_q, proc = self._spawn(worker)
        self._task_qs[worker] = task_q
        self._procs[worker] = proc
        self.retries_done += 1
        for tid in self._unfinished_for(worker):
            attempt, shard, fn, args = self._pending[tid]
            attempt += 1
            self._pending[tid] = (attempt, shard, fn, args)
            task_q.put((tid, attempt, shard, fn, args))

    def _shutdown(self) -> None:
        for task_q in self._task_qs:
            try:
                task_q.put(None)
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        if self._result_q is not None:
            self._result_q.close()
            self._result_q = None
        self._task_qs.clear()
        self._procs.clear()
