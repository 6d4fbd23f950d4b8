"""Parallel execution backends — ingest/query speedup and bit-identity.

The paper motivates CARP's per-rank logs with parallel processing
(§VII-A); ``repro.exec`` makes that executable.  This benchmark runs
the same seeded ingest+query pipeline under the serial and process
backends, reporting wall-clock speedups while *proving* the
outputs identical (log hashes and query digests) — speed may vary with
the host, bytes must not.

The ≥1.8x process-pool acceptance bar applies on hosts with at least
4 CPU cores; on smaller hosts (CI runners, laptops on battery) the
speedup is reported as measured and only the determinism assertions
gate.
"""

from __future__ import annotations

import hashlib
import os
import time

from repro.bench.results import emit
from repro.bench.tables import banner, fmt_seconds, render_table
from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.exec import ProcessExecutor, SerialExecutor
from repro.query.engine import PartitionedStore
from repro.storage.log import list_logs
from repro.traces.vpic import VpicTraceSpec, generate_timestep

SPEC = VpicTraceSpec(nranks=8, particles_per_rank=12_000, seed=2024,
                     value_size=8)

OPTIONS = CarpOptions(
    pivot_count=128,
    oob_capacity=128,
    renegotiations_per_epoch=4,
    memtable_records=1024,
    round_records=512,
    value_size=8,
)

EPOCHS = (0, 1)

QUERIES = (
    (0, -1.0, 1.0),
    (0, 0.0, 4.0),
    (1, 0.5, 2.5),
    (1, -8.0, 8.0),
)

WORKERS = 4

BACKENDS = (
    ("serial", SerialExecutor),
    ("process", lambda: ProcessExecutor(WORKERS)),
)


def run_backend(out_dir, make_exec, streams):
    """Ingest + query under one backend; wall times and output digests."""
    with make_exec() as executor:
        t0 = time.perf_counter()
        with CarpRun(SPEC.nranks, out_dir, OPTIONS,
                     executor=executor) as run:
            for epoch in EPOCHS:
                run.ingest_epoch(epoch, streams[epoch])
        t_ingest = time.perf_counter() - t0

        t0 = time.perf_counter()
        digest = hashlib.sha256()
        with PartitionedStore(out_dir, executor=executor) as store:
            for epoch, lo, hi in QUERIES:
                res = store.query(epoch, lo, hi)
                digest.update(res.keys.tobytes())
                digest.update(res.rids.tobytes())
        t_query = time.perf_counter() - t0

    logs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in list_logs(out_dir)}
    return {
        "ingest_s": t_ingest,
        "query_s": t_query,
        "logs": logs,
        "query_digest": digest.hexdigest(),
    }


def test_parallel_execution_speedup(benchmark, tmp_path_factory):
    streams = {ep: generate_timestep(SPEC, ep) for ep in EPOCHS}

    def measure():
        return {
            name: run_backend(tmp_path_factory.mktemp(f"exec_{name}"),
                              make_exec, streams)
            for name, make_exec in BACKENDS
        }

    outcomes = benchmark.pedantic(measure, rounds=1, iterations=1)

    serial = outcomes["serial"]
    rows = []
    json_rows = []
    for name, _ in BACKENDS:
        o = outcomes[name]
        total = o["ingest_s"] + o["query_s"]
        speedup = (serial["ingest_s"] + serial["query_s"]) / total
        rows.append([
            name,
            1 if name == "serial" else WORKERS,
            fmt_seconds(o["ingest_s"]),
            fmt_seconds(o["query_s"]),
            f"{speedup:.2f}x",
            "yes" if (o["logs"] == serial["logs"]
                      and o["query_digest"] == serial["query_digest"])
            else "NO",
        ])
        json_rows.append({
            "backend": name,
            "workers": 1 if name == "serial" else WORKERS,
            "ingest": o["ingest_s"],
            "query": o["query_s"],
            "speedup": speedup,
            "bit_identical": o["logs"] == serial["logs"]
            and o["query_digest"] == serial["query_digest"],
        })

    headers = ["backend", "workers", "ingest", "query",
               "speedup", "bit-identical"]
    text = banner(
        "parallel execution", f"ingest+query across executor backends "
        f"({os.cpu_count()} host cores; identical bytes required)"
    ) + "\n" + render_table(headers, rows)
    emit("bench_parallel_execution", text, rows=json_rows,
         units={"ingest": "s", "query": "s", "speedup": "x"})

    # bytes are the hard gate on every host
    for name, _ in BACKENDS:
        assert outcomes[name]["logs"] == serial["logs"], name
        assert outcomes[name]["query_digest"] == serial["query_digest"], name

    # the throughput bar only means something with real cores to use
    cores = os.cpu_count() or 1
    if cores >= 4:
        process_total = (outcomes["process"]["ingest_s"]
                         + outcomes["process"]["query_s"])
        serial_total = serial["ingest_s"] + serial["query_s"]
        assert serial_total / process_total >= 1.8
