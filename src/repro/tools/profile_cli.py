"""``carp profile`` — deterministic cost-attribution profiles.

Folds the artifacts an instrumented run already archived (``carp trace
-o DIR``, ``carp serve --out DIR``, a perf workload's recording) into
collapsed-stack profiles that attribute *counts* — spans, bytes,
records, SST probes and matches per span path, no time.  Everything
operates on *archived artifacts only* (lint rule O505): no run is
executed, no clock is read, so repeat invocations over the same inputs
are byte-identical.  A diff between two profiles is what ``carp perf
compare`` writes when its byte-for-byte profile check trips.

* ``carp profile record DIR`` — fold ``DIR/trace.json`` (+
  ``DIR/metrics.json`` when present) into ``DIR/profile.json`` and
  ``DIR/profile.folded`` (FlameGraph/speedscope collapsed stacks,
  weighted by span count), and print the top ``TOP_FRAMES`` frames.
  The folded totals are reconciled against the metrics counters the
  same way ``carp explain`` reconciles query costs; any drift exits 1.
  A missing ``metrics.json`` degrades to a warning (profile still
  written, reconciliation skipped).  ``--request ID`` prints the frames
  of one request (e.g. ``ingest-000001``, ``query-000003``) — its
  spans on every lane and worker, each under its full stack path —
  in place of the top frames of the whole run.

    carp profile record /tmp/carp-obs
    carp profile record /tmp/carp-obs --request ingest-000001
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.obs.profile import Profile, fold_trace_doc
from repro.obs.report import frame_table, phase_table

#: Frames printed, by span count, when no ``--request`` is named.
TOP_FRAMES = 10


def add_arguments(p: argparse.ArgumentParser) -> None:
    sub = p.add_subparsers(dest="command", required=True)

    rec = sub.add_parser(
        "record", help="fold an artifact directory into a profile"
    )
    rec.add_argument("directory", type=Path, metavar="DIR",
                     help="artifact directory holding trace.json "
                          "(+ metrics.json for reconciliation)")
    rec.add_argument("--request", default=None, metavar="ID",
                     help="print every frame of the named request "
                          "(e.g. ingest-000001) instead of the top frames")


def _load_json(path: Path) -> Any:
    return json.loads(path.read_text())


def write_profile(profile: Profile, out_dir: Path) -> tuple[Path, Path]:
    """Persist ``profile.json`` + ``profile.folded`` under ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "profile.json"
    folded_path = out_dir / "profile.folded"
    json_path.write_text(profile.to_json())
    folded_path.write_text(profile.to_folded())
    return json_path, folded_path


def _cmd_record(args: argparse.Namespace) -> int:
    directory: Path = args.directory
    trace_path = directory / "trace.json"
    try:
        trace_doc = _load_json(trace_path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {trace_path}: {exc}", file=sys.stderr)
        return 2
    try:
        profile = fold_trace_doc(trace_doc)
    except ValueError as exc:
        print(f"error: {trace_path}: {exc}", file=sys.stderr)
        return 2

    errors: list[str] = []
    metrics_path = directory / "metrics.json"
    if metrics_path.is_file():
        try:
            snapshot = _load_json(metrics_path)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: cannot read {metrics_path}: {exc}; "
                  "reconciliation skipped", file=sys.stderr)
        else:
            errors = profile.reconcile(snapshot)
    else:
        print(f"warning: {metrics_path} missing; reconciliation skipped",
              file=sys.stderr)

    json_path, folded_path = write_profile(profile, directory)
    print(phase_table(profile))
    print()
    if args.request is None:
        print(frame_table(profile, TOP_FRAMES))
    else:
        print(f"Frames for request {args.request}")
        print(frame_table(fold_trace_doc(trace_doc, request=args.request)))
    totals = profile.totals()
    print()
    print(f"profile:  {json_path} ({len(profile.frames)} frames, "
          f"{totals['spans']} spans, {totals['bytes']} B)")
    print(f"folded:   {folded_path}")
    if errors:
        for err in errors:
            print(f"error: reconcile: {err}", file=sys.stderr)
        return 1
    if metrics_path.is_file():
        print("reconcile: profile totals match metrics counters exactly")
    return 0


def run(args: argparse.Namespace) -> int:
    return _cmd_record(args)
