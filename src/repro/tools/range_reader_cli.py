"""``carp range-reader -a`` — analyze partitioned output (artifact A5).

Keeps the paper artifact's analyze mode and its spelling: ``-a``
prints the store's statistics and the point selectivity at probes
spread over the first epoch's key range.  Works identically against
CARP output and compacted (sorted) output.  A single range query is
``carp explain``, which also reconciles its cost.

    carp range-reader -i /tmp/carp-out -a
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.query.engine import PartitionedStore
from repro.query.reader import analyze_store
from repro.storage.blocks import BlockCorruptionError
from repro.storage.manifest import ManifestError


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("-i", "--input", required=True, type=Path,
                   help="partitioned output directory")
    p.add_argument("-a", "--analyze", action="store_true", required=True,
                   help="analysis mode: store statistics + selectivity")


def run(args: argparse.Namespace) -> int:
    try:
        with PartitionedStore(args.input) as store:
            analysis = analyze_store(store)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ManifestError, BlockCorruptionError) as exc:
        # a torn or damaged log: the strict open refuses it
        print(f"error: {exc} (see carp fsck)", file=sys.stderr)
        return 2
    print(f"epochs: {list(analysis.epochs)}")
    print(f"records: {analysis.total_records}  bytes: {analysis.total_bytes}"
          f"  SSTs: {analysis.ssts}")
    print("point selectivity at keyspace probes:")
    for key, sel in zip(analysis.probe_keys, analysis.probe_selectivity):
        print(f"  key {key:12.6g}: {sel:.2%}")
    print(f"median selectivity: {analysis.median_selectivity:.2%}")
    return 0
