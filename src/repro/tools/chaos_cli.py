"""``carp chaos`` — seeded crash-recovery trials for KoiDB logs.

Runs ``N`` chaos seeds (see :mod:`repro.faults.chaos`): each seed
generates a fault plan, runs a CARP workload against it, injects the
planned crash, recovers with ``fsck --repair``, appends a redo epoch,
and checks that no committed data was lost.

Exit status is nonzero if any seed fails; failing seeds write a JSON
repro bundle (the plan plus log and query digests) under ``--bundle-dir``
so the exact trial can be replayed with ``--seed-start <seed> --seeds 1``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.faults.chaos import SeedResult, run_seeds
from repro.tools import add_out_dir


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seeds", type=int, default=10,
        help="number of consecutive seeds to run (default: 10)",
    )
    parser.add_argument(
        "--seed-start", type=int, default=0,
        help="first seed (default: 0)",
    )
    add_out_dir(parser, "scratch directory; a failing seed's logs stay "
                        "there (default: a temporary directory)")
    parser.add_argument(
        "--bundle-dir", type=Path, default=None,
        help="where to write JSON repro bundles for failing seeds",
    )


def run(args: argparse.Namespace) -> int:
    if args.seeds <= 0:
        print("carp chaos: --seeds must be positive", file=sys.stderr)
        return 2
    seeds = list(range(args.seed_start, args.seed_start + args.seeds))

    def report(result: SeedResult) -> None:
        status = "ok" if result.ok else "FAIL"
        crashed = "crashed" if result.crashed else "clean"
        faults = len(result.plan.specs)
        print(
            f"seed {result.seed:>4}  {status:<4} "
            f"({faults} fault(s), {crashed})"
        )
        if not result.ok:
            for failure in result.failures:
                print(f"    {failure}")

    def trials(base: Path) -> list[SeedResult]:
        return run_seeds(
            seeds, base,
            bundle_dir=args.bundle_dir,
            progress=report,
        )

    if args.out is not None:
        results = trials(args.out)
    else:
        with tempfile.TemporaryDirectory(prefix="carp-chaos-") as tmp:
            results = trials(Path(tmp))

    failed = [r for r in results if not r.ok]
    crashed = sum(1 for r in results if r.crashed)
    print(
        f"carp-chaos: {len(results)} seed(s), {crashed} with injected "
        f"crashes, {len(failed)} failed"
    )
    if failed:
        print(
            "failing seeds: " + ", ".join(str(r.seed) for r in failed),
            file=sys.stderr,
        )
        if args.bundle_dir is not None:
            print(f"repro bundles under {args.bundle_dir}", file=sys.stderr)
        return 1
    return 0
