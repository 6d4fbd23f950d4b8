"""Executor construction: by name, from the environment, from a CLI.

The injection convention mirrors ``obs=``: every entry point that
fans work out (ingest, compaction) takes ``executor=`` and defaults to
the inline serial backend.  ``executor=None`` additionally consults the environment —
``CARP_EXECUTOR={serial,process}`` and ``CARP_WORKERS=N`` — so a
CI leg can push a whole test suite through the process pool without
touching call sites.  :func:`resolve_executor` reports whether the
consumer owns (and must close) the executor it got back.
"""

from __future__ import annotations

import argparse
import os

from repro.exec.api import SERIAL_EXEC, Executor, SerialExecutor
from repro.exec.pools import ProcessExecutor

#: Recognized ``CARP_EXECUTOR`` / ``--executor`` backend names.
EXECUTOR_KINDS = ("serial", "process")

ENV_EXECUTOR = "CARP_EXECUTOR"
ENV_WORKERS = "CARP_WORKERS"
ENV_TASK_RETRIES = "CARP_TASK_RETRIES"


def default_worker_count() -> int:
    """Workers used when none are requested: one per CPU."""
    return os.cpu_count() or 1


def default_task_retries() -> int:
    """Crash-retry budget from ``CARP_TASK_RETRIES`` (default 0)."""
    raw = os.environ.get(ENV_TASK_RETRIES, "").strip()
    return int(raw) if raw else 0


def make_executor(
    kind: str, workers: int | None = None, task_retries: int | None = None
) -> Executor:
    """Construct a backend by name.

    ``workers`` defaults to the CPU count for the process pool and is
    ignored for ``serial``.  ``task_retries`` is the per-task
    :class:`~repro.exec.api.WorkerCrashError` retry budget (default:
    ``CARP_TASK_RETRIES`` or 0).  Workers spawn lazily, so an executor
    that is never submitted to costs nothing.
    """
    retries = task_retries if task_retries is not None else default_task_retries()
    if kind == "serial":
        return SerialExecutor(task_retries=retries)
    if kind == "process":
        n = workers if workers is not None else default_worker_count()
        return ProcessExecutor(n, task_retries=retries)
    raise ValueError(
        f"unknown executor kind {kind!r} (expected one of {EXECUTOR_KINDS})"
    )


def default_executor() -> Executor:
    """The environment-selected executor.

    Returns the shared :data:`~repro.exec.api.SERIAL_EXEC` unless
    ``CARP_EXECUTOR=process``; ``CARP_WORKERS`` sizes the pool.
    """
    kind = os.environ.get(ENV_EXECUTOR, "").strip().lower()
    if not kind or kind == "serial":
        return SERIAL_EXEC
    raw_workers = os.environ.get(ENV_WORKERS, "").strip()
    workers = int(raw_workers) if raw_workers else None
    return make_executor(kind, workers)


def resolve_executor(executor: Executor | None) -> tuple[Executor, bool]:
    """Resolve an ``executor=`` keyword to ``(executor, owned)``.

    ``owned`` is True when the executor was created here (from the
    environment) and the consumer is responsible for closing it; an
    explicitly injected executor stays owned by its caller, matching
    the ``obs=`` convention.
    """
    if executor is not None:
        return executor, False
    resolved = default_executor()
    return resolved, resolved is not SERIAL_EXEC


# ------------------------------------------------------------------- CLI

def add_executor_args(parser: argparse.ArgumentParser) -> None:
    """Attach the uniform ``--executor`` / ``--workers`` flags."""
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_KINDS,
        default=None,
        help="execution backend for parallelizable stages "
        f"(default: ${ENV_EXECUTOR} or serial)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=f"worker count for the process pool (default: ${ENV_WORKERS} or CPU count)",
    )


def executor_from_args(args: argparse.Namespace) -> tuple[Executor, bool]:
    """Build ``(executor, owned)`` from parsed CLI flags.

    Flags win over the environment; with neither present this falls
    back to :func:`resolve_executor`'s environment handling.
    """
    if args.executor is None and args.workers is None:
        return resolve_executor(None)
    kind = args.executor
    if kind is None:
        kind = os.environ.get(ENV_EXECUTOR, "").strip().lower() or "serial"
    executor = make_executor(kind, args.workers)
    return executor, executor is not SERIAL_EXEC
