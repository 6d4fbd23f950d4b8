#!/usr/bin/env bash
# Repository lint gate — the same three checks as CI's lint job
# (.github/workflows/ci.yml), with the same arguments.
#
#   carp-lint  — always runs (no third-party deps; rules catalogued in
#                docs/INVARIANTS.md)
#   ruff       — runs when installed (pip install -e '.[lint]'); the only
#                local check for generic hygiene (see pyproject.toml)
#   mypy       — runs when installed; strict on
#                repro.core/storage/sim/obs/exec/faults/api/kernels, the
#                only local check for annotation coverage
#
# Exit non-zero if any available checker finds a problem.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0

echo "== carp-lint =="
PYTHONPATH=src python -m repro lint src/repro || status=1

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests scripts || status=1
else
    echo "== ruff == (not installed; skipping — pip install -e '.[lint]')"
fi

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy =="
    mypy src/repro/core src/repro/storage src/repro/sim src/repro/obs src/repro/exec src/repro/faults src/repro/api.py src/repro/kernels || status=1
else
    echo "== mypy == (not installed; skipping — pip install -e '.[lint]')"
fi

exit "$status"
