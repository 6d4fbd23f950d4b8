"""Observability overhead — the disabled path must be provably free.

Runs the carp-perf ``obs-overhead`` workload: the same seeded ingest
once under the shared ``NULL_OBS`` stack and once fully recording with
a streaming telemetry sink.  The null run's zero-side-effect metrics
are *exact* gates — no instruments registered, no virtual time
accumulated, no telemetry lines written — while the wall-clock
overhead ratio is reported for trend visibility only (runner noise is
not a regression; the committed baseline in ``results/baselines/``
gates the deterministic rows on every push).
"""

from __future__ import annotations

from repro.bench.results import emit
from repro.bench.tables import banner, render_table
from repro.perf.harness import run_workload
from repro.perf.workloads import WORKLOADS


def test_obs_overhead(benchmark):
    spec = WORKLOADS["obs-overhead"]
    metrics = benchmark.pedantic(
        lambda: run_workload(spec), rounds=1, iterations=1
    ).metrics
    by_name = {m.name: m for m in metrics}

    headers = ["metric", "value", "unit", "kind"]
    rows = [[m.name, f"{m.value:.6g}", m.unit,
             m.kind + (" (advisory)" if m.kind == "wall" else "")]
            for m in metrics]
    text = banner(
        "observability overhead",
        f"{spec.nranks} ranks x {spec.records_per_rank} records x "
        f"{spec.epochs} epochs, {spec.backend} backend; null path must "
        "leave zero side effects",
    ) + "\n" + render_table(headers, rows)
    emit("bench_obs_overhead", text, rows=[m.to_row() for m in metrics],
         units={m.name: m.unit for m in metrics})

    # the null path is free: nothing registered, no time, no output
    assert by_name["null_side_effects"].value == 0
    # and the recording path actually recorded something to compare to
    assert by_name["telemetry_lines"].value > 0
    assert by_name["recording_instruments"].value > 0
    assert by_name["ingest_virtual_ticks"].value > 0
