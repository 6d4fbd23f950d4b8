"""Fig. 7a — query latency vs selectivity: CARP vs TritonSort vs
FastQuery vs full scan.

Eight range queries spanning 0.01%-10% selectivity are answered by all
four systems over the same (late, heavy-tailed) timestep.  Latencies
combine bytes/requests measured on the real on-disk layouts with the
paper-calibrated I/O cost model.

Expected shape (paper Observations 1-2): CARP matches TritonSort for
selectivity >= ~0.05% and is slower only for extremely selective
queries (it must read whole partitions); FastQuery is 1-2 orders of
magnitude slower everywhere (auxiliary random reads); full scan is the
flat worst case for selective queries.
"""

import numpy as np
import pytest

from repro.baselines.fastquery import BitmapIndex
from repro.baselines.fullscan import write_unpartitioned
from repro.bench.results import emit
from repro.bench.tables import banner, fmt_seconds, render_table
from repro.query.engine import PartitionedStore
from repro.workloads.queries import achieved_selectivity, build_query_suite
from benchmarks.conftest import LATE_TS


@pytest.fixture(scope="module")
def setups(bench_carp, bench_sorted, bench_streams, bench_keys,
           tmp_path_factory):
    raw_dir = tmp_path_factory.mktemp("fig7a_raw")
    write_unpartitioned(raw_dir, LATE_TS, bench_streams[LATE_TS],
                        sst_records=1024)
    index = BitmapIndex.from_streams(bench_streams[LATE_TS], nbins=512,
                                     record_size=12)
    with PartitionedStore(bench_carp["dir"]) as carp, \
         PartitionedStore(bench_sorted[LATE_TS]) as tsort, \
         PartitionedStore(raw_dir) as raw:
        yield {
            "carp": carp,
            "sorted": tsort,
            "raw": raw,
            "fastquery": index,
            "keys": bench_keys[LATE_TS],
        }


def run_suite(setups):
    keys = setups["keys"]
    suite = build_query_suite(keys)
    rows = []
    series = {"carp": [], "sorted": [], "fastquery": [], "scan": []}
    for spec in suite:
        carp = setups["carp"].query(LATE_TS, spec.lo, spec.hi)
        tsort = setups["sorted"].query(LATE_TS, spec.lo, spec.hi)
        _, _, fq = setups["fastquery"].query(spec.lo, spec.hi)
        scan = setups["raw"].scan(LATE_TS)
        sel = achieved_selectivity(keys, spec)
        series["carp"].append(carp.cost.latency)
        series["sorted"].append(tsort.cost.latency)
        series["fastquery"].append(fq.latency)
        series["scan"].append(scan.cost.latency)
        rows.append([
            f"{100 * sel:.3f}%",
            len(carp),
            fmt_seconds(carp.cost.latency),
            fmt_seconds(tsort.cost.latency),
            fmt_seconds(fq.latency),
            fmt_seconds(scan.cost.latency),
        ])
    return rows, series, suite


def test_fig7a_latency_vs_selectivity(benchmark, setups):
    rows, series, suite = benchmark.pedantic(
        lambda: run_suite(setups), rounds=1, iterations=1
    )
    headers = ["selectivity", "matched", "CARP", "TritonSort", "FastQuery",
               "FullScan"]
    text = banner(
        "Fig 7a", "query latency vs selectivity (modeled on real layouts)"
    ) + "\n" + render_table(headers, rows)
    emit("fig7a_query_latency", text)

    carp = np.array(series["carp"])
    tsort = np.array(series["sorted"])
    fq = np.array(series["fastquery"])

    # Observation 1: FastQuery 1-2 orders of magnitude slower than CARP
    assert np.all(fq >= 5 * carp)
    assert np.median(fq / carp) > 20

    # Observation 2: CARP ~ TritonSort once query selectivity exceeds
    # the per-partition floor.  The paper's floor is 1/512 = 0.18%; at
    # this benchmark's 16 ranks the floor is 1/16 ~ 6%, so the
    # crossover shifts accordingly (same shape, scaled).
    floor = 1.0 / 16
    moderate = [i for i, s in enumerate(suite) if s.target_selectivity >= floor * 0.8]
    assert moderate, "suite must include queries above the partition floor"
    assert np.all(carp[moderate] < 4 * tsort[moderate])

    # the CARP/sorted gap shrinks as selectivity grows
    ratios = carp / tsort
    assert ratios[-1] < ratios[0]

    # highly selective queries: CARP pays the full-partition floor
    assert carp[0] > tsort[0]


def test_fig7a_carp_query_execution_speed(benchmark, setups):
    """Timed kernel: an actual mid-selectivity CARP range query
    (manifest -> SST reads -> filter -> merge) on real files."""
    keys = setups["keys"]
    spec = build_query_suite(keys)[4]  # 1% selectivity

    result = benchmark(lambda: setups["carp"].query(LATE_TS, spec.lo, spec.hi))
    assert len(result) > 0


def test_fig7a_sorted_query_execution_speed(benchmark, setups):
    keys = setups["keys"]
    spec = build_query_suite(keys)[4]
    result = benchmark(lambda: setups["sorted"].query(LATE_TS, spec.lo, spec.hi))
    assert len(result) > 0
