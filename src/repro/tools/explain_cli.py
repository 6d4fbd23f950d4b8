"""``carp explain`` — plan + cost report for a range query.

Opens a directory of KoiDB logs (CARP or compacted output), builds the
EXPLAIN report for one range query, then *executes* the query and
reconciles the report's cost field-for-field against the measured
:class:`QueryCost`.  A zero exit
status therefore certifies that the report is exact, not an estimate.

    carp explain out/db --epoch 0 --lo 0.5 --hi 2.0
    carp explain out/db --epoch 1 --json explain.json

With ``--lo``/``--hi`` omitted the query covers the epoch's central
half (25th-75th percentile of the key range), a selective-but-nonempty
default for eyeballing a store.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.query.engine import PartitionedStore
from repro.query.request import check_bounds
from repro.sim.iomodel import IOModel
from repro.storage.blocks import BlockCorruptionError
from repro.storage.manifest import ManifestError
from repro.storage.snapshot import pin_snapshot
from repro.tools import add_json_report, write_json_report


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("store", type=Path,
                   help="directory of KoiDB logs (CARP or compacted output)")
    p.add_argument("--epoch", type=int, default=None,
                   help="epoch to query (default: the latest committed epoch)")
    p.add_argument("--lo", type=float, default=None,
                   help="range lower bound (default: 25th pct of key range)")
    p.add_argument("--hi", type=float, default=None,
                   help="range upper bound (default: 75th pct of key range)")
    p.add_argument("--recover", action="store_true",
                   help="tolerate crash-torn log tails")
    add_json_report(p, "also write the report as JSON")


def run(args: argparse.Namespace) -> int:
    if not args.store.is_dir():
        print(f"error: {args.store} is not a directory", file=sys.stderr)
        return 2
    try:
        return _explain(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ManifestError, BlockCorruptionError) as exc:
        # a torn or damaged log: the strict open refuses it
        print(f"error: {exc} (see carp fsck, or --recover)", file=sys.stderr)
        return 2


def _explain(args: argparse.Namespace) -> int:
    snapshot = pin_snapshot(args.store) if args.recover else None
    with PartitionedStore(args.store, io=IOModel(), snapshot=snapshot) as store:
        try:
            epoch = store.resolve_epoch(args.epoch)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        kmin, kmax = store.key_range(epoch)
        lo = args.lo if args.lo is not None else kmin + 0.25 * (kmax - kmin)
        hi = args.hi if args.hi is not None else kmin + 0.75 * (kmax - kmin)
        try:
            check_bounds(lo, hi)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = store.explain(epoch, lo, hi)
        measured = store.query(epoch, lo, hi).cost
    errors = report.reconcile(measured)
    print(report.render_text())
    if not errors:
        print("reconciliation: explain cost == measured QueryCost (exact)")
    if args.json is not None:
        doc = report.to_dict()
        doc["verified"] = not errors
        write_json_report(args.json, doc)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    return 0
