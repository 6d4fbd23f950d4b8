"""``carp fsck`` — verify the integrity of a partitioned output directory.

Diagnoses every KoiDB log once — its commit point and the kind of any
tail after it — and verifies the committed prefix: CRCs, manifest
chains, and the metadata invariants the query engine relies on.

Examples::

    carp fsck -i /tmp/carp-out
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
    p.add_argument("--recover", action="store_true",
                   help="accept crash-torn tails after each log's commit "
                        "point (the committed prefix is verified either way)")
    p.add_argument("--repair", action="store_true",
                   help="quarantine torn tails, truncate logs to their "
                        "commit point, and re-verify (prints a diff)")


def run(args: argparse.Namespace) -> int:
    report = fsck(args.input, recover=args.recover, repair=args.repair)
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
