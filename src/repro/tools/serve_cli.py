"""``carp serve`` — closed-loop serving-plane workload driver.

Runs a registered ``serve`` workload (``clients`` concurrent
closed-loop clients against :meth:`repro.api.Session.serve` while
epochs keep ingesting), prints served-latency p50/p95/p99 from
:meth:`~repro.obs.metrics.Histogram.quantile` plus the exact workload
counters, and optionally persists the run's observability artifacts
(metrics.json / trace.json / telemetry.jsonl) for ``carp health``::

    carp serve                          # serve-mixed, table on stdout
    carp serve --out serve-obs          # + artifacts under serve-obs/
    carp serve --json serve-report.json

Exit status: 0 when every request was answered (ok / deadline-
exceeded are both answers), 1 when the run surfaced errors or
rejections, 2 for usage problems.  The same workload is baseline-
gated by ``carp perf compare serve-mixed``; this tool is the
interactive / artifact-producing front end.  Every number it prints is
modeled or exact — the serve plane's wall clock is the ledger's
``serve-hot`` / ``serve-live`` workloads (``python -m ledger``).

See docs/SERVING.md for the serving-plane contract.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

from repro.bench.tables import render_table
from repro.perf.serve import ServeReport, run_serve_workload
from repro.perf.workloads import WORKLOADS
from repro.tools import add_json_report, add_out_dir, write_json_report


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workload", default="serve-mixed", metavar="NAME",
                   help="registered serve workload (default: serve-mixed)")
    add_out_dir(p, "persist metrics/trace/telemetry artifacts to DIR")
    add_json_report(p, "also write the full report as JSON")


def render_report(report: ServeReport) -> str:
    rows = [
        ("requests", report.requests),
        ("ok", report.ok),
        ("deadline_exceeded", report.deadline_exceeded),
        ("rejected", report.rejected),
        ("errors", report.errors),
        ("cache_hits", report.cache_hits),
        ("cache_misses", report.cache_misses),
        ("engine_queries", report.engine_queries),
        ("invalidations", report.invalidations),
        ("payload_digest", report.payload_digest),
        ("latency_p50 (virtual s)", f"{report.latency_p50:.6g}"),
        ("latency_p95 (virtual s)", f"{report.latency_p95:.6g}"),
        ("latency_p99 (virtual s)", f"{report.latency_p99:.6g}"),
        ("latency_mean (virtual s)", f"{report.latency_mean:.6g}"),
        ("evict_engine_queries", report.evict_engine_queries),
        ("evict_refill_bytes", report.evict_refill_bytes),
        ("evict_contained_hits", report.evict_contained_hits),
    ]
    return render_table(
        ("metric", "value"), rows, title=f"carp-serve: {report.workload}"
    )


def run(args: argparse.Namespace) -> int:
    spec = WORKLOADS.get(args.workload)
    if spec is None or spec.kind != "serve":
        serve_names = sorted(
            n for n, s in WORKLOADS.items() if s.kind == "serve"
        )
        print(
            f"error: unknown serve workload {args.workload!r}; "
            f"have {serve_names}",
            file=sys.stderr,
        )
        return 2

    with tempfile.TemporaryDirectory(prefix="carp-serve-") as scratch:
        report = run_serve_workload(spec, Path(scratch), out_dir=args.out)

    print(render_report(report))
    for artifact in report.artifacts:
        print(f"artifact: {artifact}")
    if args.json is not None:
        write_json_report(args.json, asdict(report))

    if report.errors or report.rejected:
        print(
            f"error: serve run surfaced {report.errors} error(s) and "
            f"{report.rejected} rejection(s)",
            file=sys.stderr,
        )
        return 1
    return 0
