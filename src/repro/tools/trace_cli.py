"""``carp trace`` — record an instrumented CARP run and emit its trace.

Drives a synthetic VPIC (or AMR) workload through a telemetry-enabled
:class:`~repro.api.Session`, then writes the observability artifacts
into the output directory:

* ``trace.json`` — Chrome ``trace_event`` JSON; load it in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  One track per
  subsystem (route/shuffle/renegotiate/flush/query/epoch), timestamps
  in virtual ticks for the timeline view.  Spans carry the request id
  of the ingest/query that caused them.
* ``metrics.json`` — the metrics snapshot (counters/gauges/histograms
  with bucket bounds and p50/p95/p99).
* ``telemetry.jsonl`` — the streaming samples (see
  docs/OBSERVABILITY.md for the schema; ``carp health`` gates on it).
* ``metrics.om`` — OpenMetrics-style text exposition of the final
  snapshot.
* ``carp_run.json`` — the run manifest (config + per-epoch stats).

Before exiting, the tool cross-checks the metrics totals against the
run's :class:`~repro.core.carp.EpochStats` / ``KoiDBStats`` counters
and validates the trace document, so a zero exit status certifies a
self-consistent recording.  This module is the sanctioned home for
``time.perf_counter`` (wall-clock is banned from the instrumented
packages by carp-lint O501): the report footer shows real
elapsed time, which never feeds back into the recording.

    carp trace -o /tmp/carp-obs --ranks 16 --epochs 3 --records 2000

The terminal report folds the trace through
:func:`repro.obs.profile.fold`, the same reader ``carp profile record``
uses, and prints counts (spans, bytes, records per span path), never
tick durations.  Two read-only modes work on archived artifacts,
tolerating legacy ``metrics.json`` files that predate histogram
snapshots:

    carp trace --report /tmp/carp-obs            # re-render the report
    carp trace --report /tmp/carp-obs --request query-000002

``--request ID`` prints the folded frames attributed to that request:
its spans on every lane and worker, each under its full stack path.
For the busiest span paths of a whole run use
``carp profile record DIR --top N``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from repro.api import Session
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.obs import Obs, validate_trace_events
from repro.obs.profile import fold
from repro.obs.report import frame_table, normalize_snapshot, render_report
from repro.query.request import QueryRequest
from repro.tools import add_out_dir
from repro.traces.amr import AmrTraceSpec
from repro.traces.amr import generate_timestep as amr_timestep
from repro.traces.vpic import VpicTraceSpec
from repro.traces.vpic import generate_timestep as vpic_timestep


def add_arguments(p: argparse.ArgumentParser) -> None:
    add_out_dir(p, "output directory (trace.json, metrics.json, "
                   "telemetry.jsonl, DB logs)")
    p.add_argument("--report", type=Path, default=None, metavar="DIR",
                   help="render the report from an existing artifact "
                        "directory instead of running a workload")
    p.add_argument("--request", type=str, default=None, metavar="ID",
                   help="print the folded frames attributed to the named "
                        "request (e.g. ingest-000001, query-000003)")
    p.add_argument("--ranks", type=int, default=16)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--records", type=int, default=2000,
                   help="records per rank per epoch (default: 2000)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workload", choices=("vpic", "amr"), default="vpic")
    p.add_argument("--queries", type=int, default=4,
                   help="instrumented range queries per epoch (default: 4)")


def _epoch_streams(args: argparse.Namespace, epoch: int) -> list[RecordBatch]:
    """Streams for one epoch, spread across the workload's timesteps.

    Epochs sample the trace schedule early/mid/late so the recording
    exhibits the paper's distribution drift (and therefore
    renegotiations and strays), not just a stationary ingest.
    """
    if args.workload == "vpic":
        vspec = VpicTraceSpec(nranks=args.ranks,
                              particles_per_rank=args.records,
                              seed=args.seed, value_size=8)
        nsteps = len(vspec.timesteps)
        gen = functools.partial(vpic_timestep, vspec)
    else:
        aspec = AmrTraceSpec(nranks=args.ranks, cells_per_rank=args.records,
                             seed=args.seed, value_size=8)
        nsteps = len(aspec.timesteps)
        gen = functools.partial(amr_timestep, aspec)
    idx = (epoch * (nsteps - 1)) // max(args.epochs - 1, 1)
    return gen(min(idx, nsteps - 1))


def _run_queries(session: Session, epochs: int, nqueries: int) -> int:
    """Execute ``nqueries`` selective range queries per stored epoch."""
    ran = 0
    store = session.store()
    for epoch in store.epochs()[:epochs]:
        lo, hi = store.key_range(epoch)
        width = (hi - lo) / max(nqueries * 4, 1)
        for q in range(nqueries):
            qlo = lo + (hi - lo) * q / max(nqueries, 1)
            session.query(
                QueryRequest(lo=qlo, hi=qlo + width, epoch=epoch)
            )
            ran += 1
    return ran


def _reconcile(obs: Obs, run_doc: dict[str, object],
               koidb_totals: dict[str, int]) -> list[str]:
    """Compare metrics counters against the run's own statistics.

    The instrumentation increments its counters at the same code sites
    that maintain ``EpochStats``/``KoiDBStats``, so any disagreement
    means an instrumentation bug — worth failing the tool over.
    """
    errors: list[str] = []

    def expect(name: str, want: float) -> None:
        got = obs.metrics.counter_value(name)
        if got != want:
            errors.append(f"metric {name}={got} != run stats {want}")

    epochs = run_doc.get("epochs")
    assert isinstance(epochs, list)
    expect("carp.records_ingested", sum(e["records"] for e in epochs))
    expect("reneg.rounds", sum(e["renegotiations"] for e in epochs))
    expect("koidb.records_in", koidb_totals["records_in"])
    expect("koidb.stray_records", koidb_totals["stray_records"])
    expect("koidb.ssts_written", koidb_totals["ssts_written"])
    expect("koidb.stray_ssts_written", koidb_totals["stray_ssts_written"])
    expect("koidb.bytes_written", koidb_totals["bytes_written"])
    expect("koidb.memtable_flushes", koidb_totals["memtable_flushes"])
    return errors


def _request_report(events: list[dict[str, object]], request_id: str) -> str:
    """Every folded frame attributed to one request, with its stack."""
    return (f"Frames for request {request_id}\n"
            + frame_table(fold(events, request=request_id)))


def _report_mode(args: argparse.Namespace) -> int:
    """Re-render reports from an archived artifact directory."""
    directory: Path = args.report
    trace_path = directory / "trace.json"
    metrics_path = directory / "metrics.json"
    run_path = directory / "db" / "carp_run.json"
    if not run_path.exists():
        run_path = directory / "carp_run.json"
    try:
        trace_doc = json.loads(trace_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {trace_path}: {exc}", file=sys.stderr)
        return 2
    events = trace_doc.get("traceEvents")
    if not isinstance(events, list):
        print(f"error: {trace_path} has no traceEvents list", file=sys.stderr)
        return 2
    if args.request is not None:
        print(_request_report(events, args.request))
        return 0
    # a trace-only directory still renders a partial report: the
    # metrics sections degrade to empty (with a note), they don't
    # abort — archived artifacts get pruned and the span timeline is
    # useful on its own
    raw_snapshot: dict[str, object] = {}
    missing_metrics: str | None = None
    if metrics_path.is_file():
        try:
            raw_snapshot = json.loads(metrics_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raw_snapshot = {}
            missing_metrics = f"cannot read {metrics_path}: {exc}"
    else:
        missing_metrics = f"{metrics_path} missing"
    # older recordings may predate histogram (or even gauge) sections;
    # degrade to what the snapshot has and say so, never crash
    snapshot, annotations = normalize_snapshot(raw_snapshot)
    if missing_metrics is not None:
        print(f"warning: {missing_metrics}; metrics sections are empty",
              file=sys.stderr)
        # the per-section "legacy snapshot" notes are noise when the
        # whole file is absent — one partial-report note says it all
        annotations = [f"{missing_metrics}; report is partial"]
    telemetry_path = directory / "telemetry.jsonl"
    if not telemetry_path.is_file():
        telemetry_path = directory / "db" / "telemetry.jsonl"
    if not telemetry_path.is_file():
        annotations.append(
            "telemetry.jsonl missing; carp health has nothing to gate on"
        )
    run_doc: dict[str, object] = {}
    if run_path.exists():
        try:
            run_doc = json.loads(run_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            annotations.append(f"run manifest unreadable ({exc})")
    else:
        annotations.append("run manifest not found; header shows no epochs")
    print(render_report(run_doc, snapshot, events))
    for note in annotations:
        print(f"note: {note}")
    return 0


def run(args: argparse.Namespace) -> int:
    if args.report is not None:
        return _report_mode(args)
    if args.out is None:
        print("error: -o/--out is required unless --report is given",
              file=sys.stderr)
        return 2
    if args.ranks < 1 or args.epochs < 1 or args.records < 1:
        print("error: --ranks/--epochs/--records must be positive",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    out = args.out
    db_dir = out / "db"
    out.mkdir(parents=True, exist_ok=True)

    obs = Obs.recording()
    opts = CarpOptions(value_size=8)
    nqueries = 0
    with Session(args.ranks, db_dir, opts, obs=obs, telemetry=True) as session:
        for epoch in range(args.epochs):
            session.ingest_epoch(epoch, _epoch_streams(args, epoch))
        manifest_path = session.run.write_run_manifest()
        koidb_totals = {
            "records_in": sum(db.stats.records_in for db in session.run.koidbs),
            "stray_records": sum(
                db.stats.stray_records for db in session.run.koidbs
            ),
            "ssts_written": sum(
                db.stats.ssts_written for db in session.run.koidbs
            ),
            "stray_ssts_written": sum(
                db.stats.stray_ssts_written for db in session.run.koidbs
            ),
            "bytes_written": sum(
                db.stats.bytes_written for db in session.run.koidbs
            ),
            "memtable_flushes": sum(
                db.stats.memtable_flushes for db in session.run.koidbs
            ),
        }
        if args.queries > 0:
            nqueries = _run_queries(session, args.epochs, args.queries)

    run_doc = json.loads(manifest_path.read_text())
    errors = _reconcile(obs, run_doc, koidb_totals)

    trace_doc = obs.tracer.to_doc()
    errors.extend(validate_trace_events(trace_doc))

    trace_path = out / "trace.json"
    obs.tracer.write(trace_path)
    metrics_path = out / "metrics.json"
    obs.metrics.write_json(metrics_path)

    events = trace_doc["traceEvents"]
    assert isinstance(events, list)
    print(render_report(run_doc, obs.metrics.snapshot(), events))
    if args.request is not None:
        print()
        print(_request_report(events, args.request))
    print()
    print(f"trace:     {trace_path} ({len(events)} events, "
          f"{nqueries} queries traced)")
    print(f"metrics:   {metrics_path}")
    print(f"telemetry: {db_dir / 'telemetry.jsonl'}")
    print(f"run:       {manifest_path}")
    print(f"elapsed:   {time.perf_counter() - t0:.2f}s wall")

    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    return 0
