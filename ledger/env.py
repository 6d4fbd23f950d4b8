"""Process environment of a benchmark run.

The benchmark measures ``Session`` defaults, so the knobs that change
them from outside are scrubbed before ``repro`` is imported: a later PR
that changes a default is measured, one that adds a knob is not.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

#: Environment variables that select an executor or kernel backend.
SCRUBBED_VARS = ("CARP_EXECUTOR", "CARP_WORKERS", "CARP_KERNELS", "CARP_TASK_RETRIES")

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


class ProgramMissingError(RuntimeError):
    """The checkout holds the benchmark but not the program under test."""


def prepare() -> list[str]:
    """Scrub the knob variables and make ``repro`` importable.

    Returns the names of the variables that were set and got removed.
    Raises :class:`ProgramMissingError` when ``src/repro`` is absent (a
    directory holding only the benchmark cannot be measured).
    """
    scrubbed = [name for name in SCRUBBED_VARS if os.environ.pop(name, None) is not None]
    src = REPO_ROOT / "src"
    if not (src / "repro" / "api.py").is_file():
        raise ProgramMissingError(f"no program to measure: {src / 'repro'} is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return scrubbed


def pin_to_one_cpu() -> int | None:
    """Pin this process, and every thread it will start, to one CPU.

    Called by ``bench`` before NumPy is imported.  On the 2-core VM the
    guest scheduler moves the program's GIL-bound threads between
    same-core and cross-core placement every few minutes; a cache hit on
    ``serve-hot`` reads 0.14 ms in one placement and 0.26-0.52 ms in the
    other, and no estimator removes a swing that lasts longer than a run
    (README, "What this box can resolve").  Returns the CPU, or None
    where the platform has no affinity call.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def fingerprint(seed: int, scale: str, scrubbed: list[str]) -> dict[str, object]:
    """What a reader needs to know before comparing two result files."""
    import numpy as np

    from repro.exec.factory import resolve_executor
    from repro.kernels import kernels_name

    executor, owned = resolve_executor(None)
    try:
        executor_class = type(executor).__name__
    finally:
        if owned:
            executor.close()
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpus_allowed": (
            sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        ),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "scale": scale,
        "kernels": kernels_name(),
        "executor": executor_class,
        "scrubbed_env": list(SCRUBBED_VARS),
        "scrubbed_env_was_set": scrubbed,
    }
