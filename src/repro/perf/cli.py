"""``carp perf`` — run perf workloads and gate on committed baselines.

Two subcommands:

* ``carp perf run [WORKLOAD ...]`` — run workloads and (re)write their
  baselines under ``results/baselines/`` (set ``REPRO_RESULTS_DIR`` to
  redirect), including the cost-attribution profile committed under
  ``results/baselines/profiles/``.
* ``carp perf compare [WORKLOAD ...] [--json PATH]`` — re-run and diff
  against the committed baselines; exits nonzero when any row
  ``changed`` (is no longer equal to its baseline) or went
  ``missing``, or when the fresh profile's ``.json`` or ``.folded``
  rendering is not byte-identical to the committed one — every row
  and every profile is deterministic, and each blocks.  ``--json``
  additionally writes the full comparison document (the CI artifact).
  When a gate trips, the failure output names a diff profile (written
  under ``--profile-dir``) and the top-3 changed span paths inline, so
  the CI log itself attributes the change.

    carp perf run
    carp perf compare --json results/perf_compare.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.results import results_dir
from repro.bench.tables import render_table
from repro.obs.profile import diff_profiles, fold
from repro.perf.harness import (
    WorkloadComparison,
    compare_workload,
    load_baseline,
    load_profile_baseline,
    run_workload,
    write_baseline,
)
from repro.perf.workloads import WORKLOADS
from repro.tools import add_json_report, write_json_report


def add_arguments(p: argparse.ArgumentParser) -> None:
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run workloads and write baselines")
    runp.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                      help="workload names (default: all)")

    cmpp = sub.add_parser(
        "compare", help="re-run workloads and diff against baselines"
    )
    cmpp.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                      help="workload names (default: all)")
    add_json_report(cmpp, "also write the comparison document to PATH")
    cmpp.add_argument("--profile-dir", type=Path, default=None,
                      metavar="DIR",
                      help="where diff profiles are written when a gate "
                           "trips (default: <results>/profile-diffs/)")


def _select(names: list[str]) -> list[str]:
    if not names:
        return list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise KeyError(
            f"unknown workload(s) {unknown}; have {sorted(WORKLOADS)}"
        )
    return names


def _cmd_run(names: list[str]) -> int:
    for name in names:
        spec = WORKLOADS[name]
        run = run_workload(spec)
        for err in run.reconcile_errors:
            print(f"error: {name}: profile reconcile: {err}",
                  file=sys.stderr)
        path = write_baseline(spec, run)
        print(f"wrote {path}")
        print(f"wrote {path.parent / 'profiles' / (name + '.json')}")
        print()
    return 0


def _fmt_value(value: float | None) -> str:
    # repr: a one-ulp change must be visible in the table it fails
    return "-" if value is None else repr(float(value))


def _fmt_comparison(comparison: WorkloadComparison) -> str:
    return render_table(
        ("metric", "baseline", "current", "status"),
        [
            (m.metric, _fmt_value(m.baseline), _fmt_value(m.current),
             m.status)
            for m in comparison.metrics
        ] + [("profile (.json, .folded)", "-", "-",
              comparison.profile_status)],
        title=f"carp-perf compare: {comparison.workload}",
    )


def _emit_diff_profile(
    comparison: WorkloadComparison, profile_dir: Path
) -> None:
    """Blame a tripped gate on span paths, inline in the failure log.

    Diffs the fresh run's profile against the committed baseline
    profile (an empty one when none is committed), writes the full diff
    document as a CI artifact, and prints its path plus the top-3
    changed span paths — so the log alone says *where* the change
    lives, no artifact download needed.
    """
    base = load_profile_baseline(comparison.workload)
    if base is None:
        print(f"error: no baseline profile for {comparison.workload}; "
              "re-run `carp perf run` to commit one", file=sys.stderr)
        base = fold(())
    diff = diff_profiles(base, comparison.current_profile)
    profile_dir.mkdir(parents=True, exist_ok=True)
    path = profile_dir / f"{comparison.workload}.profile-diff.json"
    path.write_text(diff.to_json())
    print(f"diff profile: {path}", file=sys.stderr)
    top = diff.top_paths(3)
    if not top:
        print("  (profiles are identical — the change is outside "
              "the traced span tree)", file=sys.stderr)
    for span_path, count_delta, bytes_delta in top:
        print(f"  changed span path: {span_path} "
              f"({count_delta:+d} spans, {bytes_delta:+d} B)",
              file=sys.stderr)


def _cmd_compare(names: list[str], json_path: Path | None,
                 profile_dir: Path | None) -> int:
    if profile_dir is None:
        profile_dir = results_dir() / "profile-diffs"
    comparisons: list[WorkloadComparison] = []
    missing: list[str] = []
    for name in names:
        baseline = load_baseline(name)
        if baseline is None:
            missing.append(name)
            continue
        comparison = compare_workload(WORKLOADS[name], baseline)
        comparisons.append(comparison)
        print(_fmt_comparison(comparison))
        print()
    blocking = any(c.blocking for c in comparisons)
    doc = {
        "blocking": blocking or bool(missing),
        "missing_baselines": missing,
        "workloads": [c.to_dict() for c in comparisons],
    }
    if json_path is not None:
        write_json_report(json_path, doc, "comparison document")
    for name in missing:
        print(f"error: no baseline for {name} (run `carp perf run {name}`)",
              file=sys.stderr)
    if blocking:
        failed = [
            f"{c.workload}.{m.metric} ({m.status})"
            for c in comparisons for m in c.metrics if m.blocking
        ] + [
            f"{c.workload}.profile ({c.profile_status})"
            for c in comparisons if c.profile_status != "ok"
        ]
        print(f"error: perf regression gate failed: {', '.join(failed)}",
              file=sys.stderr)
        stale = [c.workload for c in comparisons
                 if c.profile_status == "missing"
                 or any(m.status == "missing" for m in c.metrics)]
        if stale:
            print("error: baseline rows the run no longer produces; "
                  f"re-record the baseline (`carp perf run {' '.join(stale)}`)",
                  file=sys.stderr)
        for comparison in comparisons:
            if comparison.blocking:
                _emit_diff_profile(comparison, profile_dir)
    return 1 if (blocking or missing) else 0


def run(args: argparse.Namespace) -> int:
    try:
        names = _select(list(args.workloads))
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.command == "run":
        return _cmd_run(names)
    return _cmd_compare(names, args.json, args.profile_dir)
