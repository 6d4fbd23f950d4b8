"""Executor resolution with the ``obs=`` ownership convention."""

from __future__ import annotations

from repro.exec.api import SerialExecutor


def resolve_executor(
    executor: SerialExecutor | None = None,
) -> tuple[SerialExecutor, bool]:
    """Resolve an executor to ``(executor, owned)``.

    A passed-in executor stays its caller's (``owned`` False); ``None``
    builds a fresh :class:`SerialExecutor` that the consumer owns and
    closes.
    """
    if executor is not None:
        return executor, False
    return SerialExecutor(), True
