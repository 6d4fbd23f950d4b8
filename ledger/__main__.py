"""``python -m ledger`` -- run, trace, compare, aa, and the driver's ``bench``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from ledger import env, spec

RESULT_SCHEMA = "ledger-result-v1"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--scale", choices=sorted(spec.SCALES), default="full",
        help="smoke exists only to test the harness; its numbers mean nothing",
    )
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="length of one workload's measurement (sizes its repetitions)")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m ledger", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="one workload in this process (BENCHMARK.json's command)")
    bench.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)
    bench.add_argument("--detail", type=Path, help="also write the full result document here")
    _add_common(bench)

    run = sub.add_parser("run", help="every metric of the chosen workloads, one table")
    run.add_argument("--workload", action="append", choices=list(spec.WORKLOADS))
    run.add_argument("--json", type=Path, help="write the result file here")
    _add_common(run)

    trace = sub.add_parser("trace", help="per-layer metrics of one workload (wrappers on)")
    trace.add_argument("workload", choices=list(spec.WORKLOADS))
    _add_common(trace)

    cmp_ = sub.add_parser("compare", help="verdict per (workload, metric) between two result files")
    cmp_.add_argument("baseline", type=Path)
    cmp_.add_argument("change", type=Path)

    aa = sub.add_parser("aa", help="run sets of this commit back to back and compare them")
    aa.add_argument("--sets", type=int, default=2)
    aa.add_argument("--json", type=Path, default=env.OUT_DIR / "aa_report.json")
    _add_common(aa)
    return parser


def _bench(args: argparse.Namespace, scrubbed: list[str]) -> int:
    from ledger.bench import driver_line, run_workload

    scale = spec.SCALES[args.scale].for_seconds(args.seconds)
    detail = run_workload(args.workload, args.seed, scale, bool(args.trace), scrubbed)
    if args.detail is not None:
        args.detail.write_text(json.dumps(detail, indent=1))
    for failure in detail["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(driver_line(detail))
    return 0


def _one_set(args: argparse.Namespace, workloads: list[str], trace: bool) -> dict[str, Any]:
    from ledger.report import result_set, run_in_process

    return result_set(
        [run_in_process(w, args.seed, args.scale, args.seconds, trace) for w in workloads]
    )


def _scale_note(args: argparse.Namespace) -> str:
    if args.scale == "smoke":
        return "scale: SMOKE -- harness self-test only, these numbers mean nothing"
    return f"scale: full, seed {args.seed}, {args.seconds:g} s per workload"


def _run(args: argparse.Namespace) -> int:
    from ledger.report import table

    one = _one_set(args, args.workload or list(spec.WORKLOADS), trace=False)
    print(_scale_note(args))
    print(table(list(one["workloads"].values())))
    if args.json is not None:
        args.json.write_text(json.dumps({"schema": RESULT_SCHEMA, "sets": [one]}, indent=1))
    return 0 if all(d["correct"] for d in one["workloads"].values()) else 1


def _trace(args: argparse.Namespace) -> int:
    from ledger.report import table

    one = _one_set(args, [args.workload], trace=True)
    detail = one["workloads"][args.workload]
    print(_scale_note(args) + " (traced: a quarter of the repetitions, wrappers off then on)")
    print(table([detail]))
    print("wrote " + ", ".join(detail["trace_files"]))
    return 0 if detail["correct"] else 1


def _compare(args: argparse.Namespace) -> int:
    from ledger.compare import compare, render

    rows = compare(json.loads(args.baseline.read_text()), json.loads(args.change.read_text()))
    print(render(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


def _aa(args: argparse.Namespace) -> int:
    from ledger.compare import compare, layer_counts_agree, render

    workloads = list(spec.WORKLOADS)
    sets = [_one_set(args, workloads, trace=False) for _ in range(args.sets)]
    traced = [_one_set(args, workloads, trace=True) for _ in range(args.sets)]
    result = {"schema": RESULT_SCHEMA, "sets": sets}
    rows = compare(result, result, same_commit=True)
    counts = layer_counts_agree(traced)
    print(_scale_note(args) + f", {args.sets} sets of one commit")
    print(render(rows))
    disagree = [r for r in counts if r["verdict"] != "ok"]
    print(f"per-layer counts: {len(counts) - len(disagree)} of {len(counts)} repeat exactly")
    for r in disagree:
        print(f"  {r['workload']} {r['metric']}: {r['values']}")
    wrong = [d["workload"] for s in sets + traced for d in s["workloads"].values() if not d["correct"]]
    report = {
        "schema": "ledger-aa-v1",
        "fingerprint": sets[0]["fingerprint"],
        "sets": args.sets,
        "end_to_end": rows,
        "layer_counts": counts,
        "incorrect_runs": wrong,
        "wall_s": {w: [s["workloads"][w]["wall_s"] for s in sets] for w in workloads},
        "trace_overhead_x": {
            w: [s["workloads"][w]["layers"]["trace_overhead_x"] for s in traced] for w in workloads
        },
    }
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.json}")
    agreed = not wrong and not disagree and all(r["verdict"] == "ok" for r in rows)
    return 0 if agreed else 1


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "bench":
        try:
            env.pin_to_one_cpu()
            scrubbed = env.prepare()
        except env.ProgramMissingError as exc:
            print(f"ledger: {exc}", file=sys.stderr)
            return 2
        return _bench(args, scrubbed)
    # the others only start ``bench`` processes or read result files
    return {"run": _run, "trace": _trace, "aa": _aa, "compare": _compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
