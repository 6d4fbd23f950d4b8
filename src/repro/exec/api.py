"""The serial task executor behind compaction's per-epoch fan-out.

:class:`SerialExecutor` runs every task inline at ``submit``;
:meth:`SerialExecutor.drain` returns the results since the previous
drain in submission order.  A failed task does not stop later tasks
from running: ``drain`` raises the submission-order-first failure as
:class:`WorkerTaskError`, so one bad epoch does not keep the others
from compacting.

Ingest does not use an executor: ``CarpRun`` calls each receiver
rank's ``KoiDB`` directly (``docs/PARALLELISM.md``).
"""

from __future__ import annotations

import traceback
from collections.abc import Callable, Sequence
from typing import Any

#: Signature every task follows: ``fn(*args) -> result``.
TaskFn = Callable[..., Any]


class ExecutorError(RuntimeError):
    """Base class for executor failures."""


class WorkerTaskError(ExecutorError):
    """A task raised; carries the traceback text."""

    def __init__(self, shard: int, cause: str, traceback_text: str = "") -> None:
        self.shard = shard
        self.cause = cause
        self.traceback_text = traceback_text
        detail = f"\n--- worker traceback ---\n{traceback_text}" if traceback_text else ""
        super().__init__(f"task on shard {shard} failed: {cause}{detail}")


class SerialExecutor:
    """Run every task inline on the calling thread (see module docstring)."""

    def __init__(self) -> None:
        self._results: list[Any] = []
        self._failure: ExecutorError | None = None

    def submit(self, shard: int, fn: TaskFn, /, *args: Any) -> None:
        """Run ``fn(*args)`` now; ``shard`` names the task in a failure."""
        try:
            self._results.append(fn(*args))
        except Exception as exc:  # noqa: BLE001 - reported at drain
            if self._failure is None:
                self._failure = WorkerTaskError(
                    shard, repr(exc), traceback.format_exc()
                )

    def drain(self) -> list[Any]:
        """Return every result since the last drain, in submission order.

        If any task raised, the submission-order-first failure is
        raised instead (the other results are discarded; the executor
        stays usable).
        """
        results, self._results = self._results, []
        failure, self._failure = self._failure, None
        if failure is not None:
            raise failure
        return results

    def map(self, fn: TaskFn, arg_tuples: Sequence[tuple[Any, ...]]) -> list[Any]:
        """Submit one task per argument tuple (task ``i`` is shard ``i``) and drain."""
        for i, args in enumerate(arg_tuples):
            self.submit(i, fn, *args)
        return self.drain()

    def close(self) -> None:
        """Drop undrained results.  Idempotent."""
        self._results.clear()
        self._failure = None

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
