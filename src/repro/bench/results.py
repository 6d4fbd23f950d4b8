"""Benchmark result persistence.

Pytest captures stdout, so each benchmark ALSO writes its rendered
table into ``results/<figure>.txt`` at the repository root (or the
directory named by ``REPRO_RESULTS_DIR``).  EXPERIMENTS.md references
these files as the measured side of every paper-vs-measured row.

Benchmarks that pass structured ``rows`` additionally get a
machine-readable ``results/<figure>.json`` companion carrying the
figure name, the rows, their units, and the git commit the numbers
were measured at — enough for downstream tooling (regression
dashboards, the paper build) to consume results without re-parsing
rendered tables.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any


def results_dir() -> Path:
    """The directory benchmark tables are written into."""
    env = os.environ.get("REPRO_RESULTS_DIR")
    if env:
        path = Path(env)
    else:
        # repository root = three levels above this file's package dir
        path = Path(__file__).resolve().parents[3] / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def git_sha() -> str | None:
    """Current commit SHA, read straight from ``.git`` (no subprocess).

    Follows one level of ``ref:`` indirection (the normal attached-HEAD
    case) via loose refs or ``packed-refs``.  Returns ``None`` when the
    tree is not a git checkout (e.g. an sdist) or the ref is missing.
    """
    git = Path(__file__).resolve().parents[3] / ".git"
    head = git / "HEAD"
    try:
        content = head.read_text().strip()
    except OSError:
        return None
    if not content.startswith("ref:"):
        return content or None
    ref = content.split(None, 1)[1]
    loose = git / ref
    try:
        return loose.read_text().strip() or None
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text()
    except OSError:
        return None
    for line in packed.splitlines():
        if line.startswith("#") or line.startswith("^"):
            continue
        parts = line.split()
        if len(parts) == 2 and parts[1] == ref:
            return parts[0]
    return None


def emit(
    figure: str,
    text: str,
    rows: list[dict[str, Any]] | None = None,
    units: dict[str, str] | None = None,
) -> Path:
    """Print a result table and persist it to the results directory.

    ``rows`` (a list of per-series/per-scale dicts) triggers the JSON
    companion ``<figure>.json``; ``units`` maps row keys to their unit
    strings (e.g. ``{"carp": "B/s"}``).  The rendered text file is
    written either way and remains the return value.  A JSON companion
    whose figure, units and rows are unchanged is left as it is, so a
    re-run at a new commit does not rewrite it for its ``git_sha``
    alone.
    """
    print(text)
    path = results_dir() / f"{figure}.txt"
    path.write_text(text + "\n")
    if rows is not None:
        doc = {
            "figure": figure,
            "git_sha": git_sha(),
            "units": units or {},
            "rows": rows,
        }
        json_path = results_dir() / f"{figure}.json"
        if not _same_results(json_path, doc):
            json_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _same_results(path: Path, doc: dict[str, Any]) -> bool:
    """Whether ``path`` already holds ``doc``'s figure, units and rows."""
    try:
        old = json.loads(path.read_text())
    except (OSError, ValueError):
        return False
    new = json.loads(json.dumps(doc))
    return all(old.get(k) == new[k] for k in ("figure", "units", "rows"))
