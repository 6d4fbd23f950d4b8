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
tick durations.  Archived artifacts are read by ``carp profile record
DIR``: ``--top N`` for the busiest span paths of the run, ``--request
ID`` for one request's frames.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from repro.api import Session
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.obs import Obs, validate_trace_events
from repro.obs.report import render_report
from repro.query.request import QueryRequest
from repro.tools import add_out_dir
from repro.traces.amr import AmrTraceSpec
from repro.traces.amr import generate_timestep as amr_timestep
from repro.traces.vpic import VpicTraceSpec
from repro.traces.vpic import generate_timestep as vpic_timestep


#: The trace generator's seed and the instrumented range queries per
#: epoch: fixed, so every recording of one shape is the same run.
SEED = 42
QUERIES = 4


def add_arguments(p: argparse.ArgumentParser) -> None:
    add_out_dir(p, "output directory (trace.json, metrics.json, "
                   "telemetry.jsonl, DB logs)", required=True)
    p.add_argument("--ranks", type=int, default=16)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--records", type=int, default=2000,
                   help="records per rank per epoch (default: 2000)")
    p.add_argument("--workload", choices=("vpic", "amr"), default="vpic")


def _epoch_streams(args: argparse.Namespace, epoch: int) -> list[RecordBatch]:
    """Streams for one epoch, spread across the workload's timesteps.

    Epochs sample the trace schedule early/mid/late so the recording
    exhibits the paper's distribution drift (and therefore
    renegotiations and strays), not just a stationary ingest.
    """
    if args.workload == "vpic":
        vspec = VpicTraceSpec(nranks=args.ranks,
                              particles_per_rank=args.records,
                              seed=SEED, value_size=8)
        nsteps = len(vspec.timesteps)
        gen = functools.partial(vpic_timestep, vspec)
    else:
        aspec = AmrTraceSpec(nranks=args.ranks, cells_per_rank=args.records,
                             seed=SEED, value_size=8)
        nsteps = len(aspec.timesteps)
        gen = functools.partial(amr_timestep, aspec)
    idx = (epoch * (nsteps - 1)) // max(args.epochs - 1, 1)
    return gen(min(idx, nsteps - 1))


def _run_queries(session: Session, epochs: int) -> int:
    """Execute :data:`QUERIES` selective range queries per stored epoch."""
    ran = 0
    store = session.store()
    for epoch in store.epochs()[:epochs]:
        lo, hi = store.key_range(epoch)
        width = (hi - lo) / (QUERIES * 4)
        for q in range(QUERIES):
            qlo = lo + (hi - lo) * q / QUERIES
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


def run(args: argparse.Namespace) -> int:
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
        nqueries = _run_queries(session, args.epochs)

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
