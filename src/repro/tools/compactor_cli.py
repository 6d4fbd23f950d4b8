"""``carp-compactor`` — build the fully sorted layout (artifact A4).

Merges CARP's partially sorted per-rank logs into a fully sorted,
clustered index, one output directory per epoch — the layout used as
the sorted baseline in the paper's Fig. 7a.  ``-e N`` compacts one
epoch; ``--all`` compacts every epoch, one task each, and reports a
failed epoch task as an error.

Example::

    carp-compactor -i /tmp/carp-out -o /tmp/carp-out.sorted -e 0
    carp-compactor -i /tmp/carp-out -o /tmp/carp-out.sorted --all
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.exec.api import ExecutorError
from repro.storage.compactor import compact_all_epochs, compact_epoch


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="carp-compactor",
        description="Merge CARP output into a fully sorted clustered index.",
    )
    p.add_argument("-i", "--input", required=True, type=Path,
                   help="CARP output directory (KoiDB logs)")
    p.add_argument("-o", "--output", required=True, type=Path,
                   help="sorted output root (one subdirectory per epoch)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-e", "--epoch", type=int, help="epoch to compact")
    group.add_argument("--all", action="store_true",
                       help="compact every epoch present in the input")
    p.add_argument("--sst-records", type=int, default=4096,
                   help="records per output SSTable (default: 4096)")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.all:
            dirs = compact_all_epochs(args.input, args.output,
                                      sst_records=args.sst_records)
        else:
            dirs = [compact_epoch(args.input, args.output, args.epoch,
                                  sst_records=args.sst_records)]
    except (FileNotFoundError, ValueError, ExecutorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for d in dirs:
        print(f"sorted epoch written to {d}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
