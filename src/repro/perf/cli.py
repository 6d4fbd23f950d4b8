"""``carp-perf`` — run perf workloads and gate on committed baselines.

Four subcommands:

* ``carp-perf list`` — the registered workloads.
* ``carp-perf run [WORKLOAD ...]`` — run workloads and (re)write their
  baselines under ``results/baselines/`` (set ``REPRO_RESULTS_DIR`` to
  redirect), including the cost-attribution profile committed under
  ``results/baselines/profiles/``.
* ``carp-perf compare [WORKLOAD ...] [--json PATH]`` — re-run and diff
  against the committed baselines; exits nonzero when any metric
  (virtual-time beyond tolerance, or an exact output change)
  regressed — every row is deterministic and every row blocks.
  ``--json`` additionally writes the full comparison document (the CI
  artifact).  When a gate trips, the failure output names a diff
  profile (written under ``--profile-dir``) and the top-3 regressed
  span paths inline, so the CI log itself attributes the regression.
* ``carp-perf profile [WORKLOAD ...] --out DIR`` — run workloads and
  write *fresh* profiles (profile.json + .folded) under ``DIR``
  without touching baselines; CI uploads these and diffs them against
  the committed ones with ``carp-profile diff``.

    carp-perf run
    carp-perf compare --json results/perf_compare.json
    carp-perf profile ingest-serial --out profiles/
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.results import results_dir
from repro.bench.tables import render_table
from repro.obs.profile import diff_profiles
from repro.perf.harness import (
    WorkloadComparison,
    compare_workload,
    load_baseline,
    load_profile_baseline,
    run_workload,
    write_baseline,
)
from repro.perf.workloads import WORKLOADS


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="carp-perf",
        description="Baseline-gated performance benchmarks for CARP.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered workloads")

    runp = sub.add_parser("run", help="run workloads and write baselines")
    runp.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                      help="workload names (default: all)")

    cmpp = sub.add_parser(
        "compare", help="re-run workloads and diff against baselines"
    )
    cmpp.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                      help="workload names (default: all)")
    cmpp.add_argument("--json", type=Path, default=None,
                      help="also write the comparison document to PATH")
    cmpp.add_argument("--profile-dir", type=Path, default=None,
                      metavar="DIR",
                      help="where diff profiles are written when a gate "
                           "trips (default: <results>/profile-diffs/)")

    prof = sub.add_parser(
        "profile", help="run workloads and write fresh profiles"
    )
    prof.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                      help="workload names (default: all)")
    prof.add_argument("--out", type=Path, default=Path("profiles"),
                      metavar="DIR",
                      help="output directory (default: profiles/)")
    return p


def _select(names: list[str]) -> list[str]:
    if not names:
        return list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise KeyError(
            f"unknown workload(s) {unknown}; have {sorted(WORKLOADS)}"
        )
    return names


def _cmd_list() -> int:
    print(render_table(
        ("workload", "kind", "backend", "ranks", "records/rank", "epochs"),
        [
            (s.name, s.kind, s.backend, s.nranks,
             s.records_per_rank, s.epochs)
            for s in WORKLOADS.values()
        ],
        title="carp-perf workloads",
    ))
    return 0


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


def _cmd_profile(names: list[str], out_dir: Path) -> int:
    """Fresh profiles (no baseline writes) — the CI diff input."""
    out_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    for name in names:
        run = run_workload(WORKLOADS[name])
        for err in run.reconcile_errors:
            print(f"error: {name}: profile reconcile: {err}",
                  file=sys.stderr)
            status = 1
        json_path = out_dir / f"{name}.json"
        json_path.write_text(run.profile.to_json())
        (out_dir / f"{name}.folded").write_text(run.profile.to_folded())
        print(f"wrote {json_path}")
    return status


def _fmt_delta(comparison: WorkloadComparison) -> str:
    rows = []
    for m in comparison.metrics:
        delta = m.rel_delta
        rows.append((
            m.metric, m.kind,
            "-" if m.baseline is None else f"{m.baseline:.6g}",
            "-" if m.current is None else f"{m.current:.6g}",
            "-" if delta is None else f"{delta:+.2%}",
            m.status,
        ))
    return render_table(
        ("metric", "kind", "baseline", "current", "delta", "status"),
        rows,
        title=f"carp-perf compare: {comparison.workload}",
    )


def _emit_diff_profile(
    comparison: WorkloadComparison, profile_dir: Path
) -> None:
    """Blame a tripped gate on span paths, inline in the failure log.

    Diffs the fresh run's profile against the committed baseline
    profile, writes the full diff document as a CI artifact, and
    prints its path plus the top-3 regressed span paths — so the log
    alone says *where* the regression lives, no artifact download
    needed.
    """
    if comparison.current_profile is None:
        return
    base = load_profile_baseline(comparison.workload)
    if base is None:
        print(f"note: no baseline profile for {comparison.workload}; "
              "re-run `carp-perf run` to commit one", file=sys.stderr)
        return
    diff = diff_profiles(base, comparison.current_profile)
    profile_dir.mkdir(parents=True, exist_ok=True)
    path = profile_dir / f"{comparison.workload}.profile-diff.json"
    path.write_text(diff.to_json())
    print(f"diff profile: {path}", file=sys.stderr)
    top = diff.top_paths(3)
    if not top:
        print("  (profiles are identical — the regression is outside "
              "the traced span tree)", file=sys.stderr)
    for span_path, self_delta, bytes_delta in top:
        print(f"  regressed span path: {span_path} "
              f"({self_delta:+d} ns self, {bytes_delta:+d} B)",
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
        print(_fmt_delta(comparison))
        print()
    blocking = any(c.blocking for c in comparisons)
    doc = {
        "blocking": blocking or bool(missing),
        "missing_baselines": missing,
        "workloads": [c.to_dict() for c in comparisons],
    }
    if json_path is not None:
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"comparison document: {json_path}")
    for name in missing:
        print(f"error: no baseline for {name} (run `carp-perf run {name}`)",
              file=sys.stderr)
    if blocking:
        failed = [
            f"{c.workload}.{m.metric} ({m.status})"
            for c in comparisons for m in c.metrics if m.blocking
        ]
        print(f"error: perf regression gate failed: {', '.join(failed)}",
              file=sys.stderr)
        stale = [c.workload for c in comparisons
                 if any(m.status == "unknown-kind" for m in c.metrics)]
        if stale:
            print("error: baseline rows of a kind carp-perf does not gate; "
                  f"re-record the baseline (`carp-perf run {' '.join(stale)}`)",
                  file=sys.stderr)
        for comparison in comparisons:
            if comparison.blocking:
                _emit_diff_profile(comparison, profile_dir)
    return 1 if (blocking or missing) else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    try:
        names = _select(list(args.workloads))
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.command == "run":
        return _cmd_run(names)
    if args.command == "profile":
        return _cmd_profile(names, args.out)
    return _cmd_compare(names, args.json, args.profile_dir)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
