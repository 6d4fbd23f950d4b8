"""Ablation (§VII-A observation) — layout distribution vs read speed.

The paper's "surprising takeaway": CARP's partially ordered layout can
be read *faster* than the fully sorted one — "it has enough contiguity
to be read efficiently vs small random I/Os, but is distributed enough
to allow for parallel processing of a query."

The standard cost model assumes query bytes are perfectly spread over
the storage cluster.  This ablation re-prices the Fig. 7a comparison
with a *source-aware* model (effective bandwidth scales with the
number of independent logs a query touches): the sorted layout's
single log caps its parallelism, while CARP's per-rank logs supply up
to 16 parallel sources — flipping the winner for large queries exactly
as the paper reports.
"""


from repro.bench.results import emit
from repro.bench.tables import banner, fmt_seconds, render_table
from repro.query.engine import PartitionedStore
from repro.sim.iomodel import IOModel
from repro.workloads.queries import query_for_selectivity
from benchmarks.conftest import LATE_TS

#: wide selectivities: the source-parallelism effect needs queries that
#: span several CARP partitions (the paper's 512-rank runs hit dozens of
#: logs even at 1%; at 16 ranks the equivalent regime is 10-60%)
SELECTIVITIES = (0.02, 0.10, 0.30, 0.60)


def priced(store, epoch, lo, hi, io):
    """Re-price a query with source-aware reads."""
    res = store.query(epoch, lo, hi)
    entries = store.overlapping_entries(epoch, lo, hi)
    sources = len({i for i, _ in entries})
    # the model prices the paper's whole-SST client: candidate bytes,
    # one request per SST (cost.bytes_read is what keys-first probes touched)
    read = io.read_time(res.cost.candidate_bytes, res.cost.ssts_read,
                        sources=max(sources, 1))
    return read + res.cost.merge_time, sources


def test_ablation_parallel_read_layout(benchmark, bench_carp, bench_sorted,
                                       bench_keys):
    io = IOModel()
    keys = bench_keys[LATE_TS]
    suite = [query_for_selectivity(keys, s) for s in SELECTIVITIES]

    def measure():
        rows = []
        ratios = []
        with PartitionedStore(bench_carp["dir"]) as carp, \
             PartitionedStore(bench_sorted[LATE_TS]) as sorted_store:
            for spec in suite:
                c_lat, c_src = priced(carp, LATE_TS, spec.lo, spec.hi, io)
                s_lat, s_src = priced(sorted_store, LATE_TS, spec.lo,
                                      spec.hi, io)
                ratios.append(c_lat / s_lat)
                rows.append([
                    f"{spec.target_selectivity:.0%}",
                    c_src, fmt_seconds(c_lat),
                    s_src, fmt_seconds(s_lat),
                    f"{c_lat / s_lat:.2f}x",
                ])
        return rows, ratios

    rows, ratios = benchmark.pedantic(measure, rounds=1, iterations=1)
    headers = ["selectivity", "CARP sources", "CARP latency",
               "sorted sources", "sorted latency", "CARP/sorted"]
    text = banner(
        "§VII-A ablation", "source-aware read pricing: distributed CARP "
        "layout vs single sorted log"
    ) + "\n" + render_table(headers, rows)
    emit("ablation_parallel_reads", text)

    # with source parallelism counted, CARP wins the large queries —
    # the paper's surprising takeaway
    assert min(ratios) < 1.0
    # CARP's queries touch many logs; the sorted layout only one
    with PartitionedStore(bench_carp["dir"]) as carp:
        spec = suite[-1]
        entries = carp.overlapping_entries(LATE_TS, spec.lo, spec.hi)
        assert len({i for i, _ in entries}) >= 8
