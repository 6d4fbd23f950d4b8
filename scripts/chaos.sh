#!/usr/bin/env bash
# Crash-recovery chaos trials (docs/FAULTS.md): seeded ingest → kill →
# recover → query loops.  Exits nonzero on committed-data loss or a
# recovered log that is not an epoch-aligned prefix of the fault-free
# one; failing seeds leave repro bundles under chaos-bundles/.
#
#   scripts/chaos.sh            # 20 seeds (the CI smoke configuration)
#   CHAOS_SEEDS=50 scripts/chaos.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${CHAOS_SEEDS:-20}"

if command -v carp >/dev/null 2>&1; then
    carp chaos --seeds "$SEEDS" --bundle-dir chaos-bundles
else
    PYTHONPATH=src python -m repro chaos \
        --seeds "$SEEDS" --bundle-dir chaos-bundles
fi
