"""``carp fsck`` — verify the integrity of a partitioned output directory.

Walks every KoiDB log, checking CRCs, manifest chains, and the
metadata invariants the query engine relies on.

Examples::

    carp fsck -i /tmp/carp-out
    carp fsck -i /tmp/carp-out --fast        # manifests only
    carp fsck -i /tmp/carp-out --recover     # tolerate torn tails
    carp fsck -i /tmp/carp-out --repair      # quarantine + truncate damage
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.storage.fsck import fsck


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("-i", "--input", required=True, type=Path,
                   help="partitioned output directory")
    p.add_argument("--fast", action="store_true",
                   help="check manifests/footers only (skip SST bodies)")
    p.add_argument("--recover", action="store_true",
                   help="open crash-torn logs at their last valid footer")
    p.add_argument("--repair", action="store_true",
                   help="quarantine torn tails, truncate logs to their "
                        "commit point, and re-verify (prints a diff)")


def run(args: argparse.Namespace) -> int:
    report = fsck(args.input, deep=not args.fast,
                  recover=args.recover, repair=args.repair)
    print(report.summary())
    if args.repair:
        for name, kind in sorted(report.classifications.items()):
            print(f"  {name}: {kind}")
        for line in report.repairs:
            print(f"  repair: {line}")
        for err in report.errors_before:
            print(f"  before: {err}")
    for err in report.errors:
        print(f"  error: {err}", file=sys.stderr)
    return 0 if report.ok else 1
