"""``carp profile`` — deterministic cost-attribution profiles.

Folds the artifacts an instrumented run already archived (``carp trace
-o DIR``, ``carp serve --out DIR``, a perf workload's recording) into
collapsed-stack profiles that attribute *counts* — spans, bytes,
records, SST probes and matches per span path, no time — and diffs two
profiles to blame a change on specific span paths.  Everything operates on *archived artifacts only* (lint
rule O505): no run is executed, no clock is read, so repeat
invocations over the same inputs are byte-identical.

Two subcommands:

* ``carp profile record DIR [-o OUT]`` — fold ``DIR/trace.json`` (+
  ``DIR/metrics.json`` when present) into ``OUT/profile.json`` and
  ``OUT/profile.folded`` (FlameGraph/speedscope collapsed stacks,
  weighted by span count).
  The folded totals are reconciled against the metrics counters the
  same way ``carp explain`` reconciles query costs; any drift exits 1.
  A missing ``metrics.json`` degrades to a warning (profile still
  written, reconciliation skipped).
* ``carp profile diff A B [--json PATH]`` — differential profile:
  span-count and byte deltas per span path, sorted by contribution.
  ``A``/``B`` may be ``profile.json`` files or artifact directories
  (their committed profile is used, else their trace is folded).

    carp profile record /tmp/carp-obs
    carp profile diff results/baselines/profiles/ingest-serial.json run2/
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.bench.tables import render_table
from repro.obs.profile import (
    Profile,
    ProfileDiff,
    diff_profiles,
    fold_trace_doc,
)
from repro.obs.report import frame_table, phase_table
from repro.tools import add_json_report, add_out_dir, write_json_report


def add_arguments(p: argparse.ArgumentParser) -> None:
    sub = p.add_subparsers(dest="command", required=True)

    rec = sub.add_parser(
        "record", help="fold an artifact directory into a profile"
    )
    rec.add_argument("directory", type=Path, metavar="DIR",
                     help="artifact directory holding trace.json "
                          "(+ metrics.json for reconciliation)")
    add_out_dir(rec, "where to write profile.json/profile.folded "
                     "(default: DIR)")
    rec.add_argument("--top", type=int, default=10, metavar="N",
                     help="frames to print, by span count (default: 10)")

    dif = sub.add_parser("diff", help="differential profile A vs B")
    dif.add_argument("a", type=Path, metavar="A",
                     help="baseline profile.json or artifact directory")
    dif.add_argument("b", type=Path, metavar="B",
                     help="candidate profile.json or artifact directory")
    add_json_report(dif, "also write the diff document to PATH")
    dif.add_argument("--top", type=int, default=10, metavar="N",
                     help="changed paths to print (default: 10)")


def _load_json(path: Path) -> Any:
    return json.loads(path.read_text())


def load_profile(source: Path) -> tuple[Profile, list[str]]:
    """A profile from a ``profile.json`` file or artifact directory.

    Returns ``(profile, notes)``; raises ``ValueError``/``OSError``
    with a path-bearing message when the source holds neither a
    profile nor a foldable trace.
    """
    notes: list[str] = []
    if source.is_dir():
        committed = source / "profile.json"
        if committed.is_file():
            return Profile.from_doc(_load_json(committed)), notes
        trace = source / "trace.json"
        if not trace.is_file():
            raise FileNotFoundError(
                f"{source} holds neither profile.json nor trace.json"
            )
        notes.append(f"folded {trace} on the fly (no committed profile)")
        return fold_trace_doc(_load_json(trace)), notes
    doc = _load_json(source)
    if isinstance(doc, dict) and "traceEvents" in doc:
        return fold_trace_doc(doc), notes
    return Profile.from_doc(doc), notes


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

    json_path, folded_path = write_profile(
        profile, args.out if args.out is not None else directory
    )
    print(phase_table(profile))
    print()
    print(frame_table(profile, args.top))
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


def _diff_table(diff: ProfileDiff, top: int) -> str:
    entries = diff.changed()[:top]
    return render_table(
        ("stack", "spans (A)", "spans (B)", "Δ spans", "Δ bytes"),
        [
            (e.path, e.count_a, e.count_b,
             f"{e.count_delta:+d}", f"{e.bytes_delta:+d}")
            for e in entries
        ],
        title=f"top {len(entries)} changed span paths (by contribution)",
    )


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        profile_a, notes_a = load_profile(args.a)
        profile_b, notes_b = load_profile(args.b)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in notes_a + notes_b:
        print(f"note: {note}")
    diff = diff_profiles(profile_a, profile_b)
    doc = diff.to_doc()
    changed = diff.changed()
    if not changed:
        print("profiles are identical (no changed span paths)")
    else:
        print(_diff_table(diff, args.top))
        print()
        print(f"changed paths: {doc['changed_paths']}, "
              f"net spans {doc['count_delta']:+d}, "
              f"net bytes {doc['bytes_delta']:+d}")
    if args.json is not None:
        write_json_report(args.json, doc, "diff document")
    return 0


def run(args: argparse.Namespace) -> int:
    if args.command == "record":
        return _cmd_record(args)
    return _cmd_diff(args)
