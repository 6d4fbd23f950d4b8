"""Executor construction: by name, from the environment, from a CLI.

The injection convention mirrors ``obs=``: every entry point that
fans work out (ingest, compaction) takes ``executor=``.  An injected
executor stays its caller's; ``executor=None`` builds a fresh backend
from the environment — ``CARP_EXECUTOR={serial,process}``,
``CARP_WORKERS=N`` and ``CARP_TASK_RETRIES=N`` — so a CI leg can push
a whole test suite through the process pool without touching call
sites.  :func:`resolve_executor` reports whether the consumer owns (and
must close) the executor it got back.
"""

from __future__ import annotations

import argparse
import os

from repro.exec.api import Executor, SerialExecutor
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


def _env_executor(kind: str | None = None, workers: int | None = None) -> Executor:
    """Build a fresh executor; each field given here wins over the
    environment, which wins over the default (serial, CPU count)."""
    if kind is None:
        kind = os.environ.get(ENV_EXECUTOR, "").strip().lower() or "serial"
    if workers is None:
        raw = os.environ.get(ENV_WORKERS, "").strip()
        workers = int(raw) if raw else None
    return make_executor(kind, workers)


def resolve_executor(executor: Executor | None) -> tuple[Executor, bool]:
    """Resolve an ``executor=`` keyword to ``(executor, owned)``.

    An explicitly injected executor stays owned by its caller (``owned``
    False), matching the ``obs=`` convention; ``None`` builds a new
    environment-selected executor that the consumer owns and closes.
    """
    if executor is not None:
        return executor, False
    return _env_executor(), True


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


def executor_from_args(args: argparse.Namespace) -> Executor:
    """Build a fresh executor, owned by the caller, from parsed CLI flags.

    Each flag wins over its environment variable, which wins over the
    default.
    """
    return _env_executor(args.executor, args.workers)
