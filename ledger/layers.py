"""Per-layer metrics: spans folded by ``ledger/trace.py`` plus exact counts.

One function, one table: every name in :data:`ledger.spec.PER_LAYER` is
computed here for every workload.  Write-path times are self-time ms per
1M records ingested inside the traced window, read-path times ms per
engine query; a layer the workload leaves idle reads 0.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable

import numpy as np

from repro.kernels import active_kernels

from ledger import spec
from ledger.trace import Folded
from ledger.workloads import Measurement, Workload


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median_ns(call: Callable[[], Any], repeats: int = 101) -> float:
    clock = time.perf_counter_ns
    samples = []
    for _ in range(repeats):
        t0 = clock()
        call()
        samples.append(clock() - t0)
    return statistics.median(samples)


def kernel_timings(workload: Workload) -> dict[str, float]:
    """Direct calls to the active kernel slots on batches taken from the workload."""
    assert workload.load is not None
    kernels = active_kernels()
    stream = workload.load.epochs[0][0]
    # one round's batch and one memtable-sized batch (CarpOptions defaults)
    round_batch, memtable_batch = stream.select(np.arange(2048)), stream.select(np.arange(4096))
    keys = workload.load.oracle.keys[0]
    nparts = workload.scale.nranks
    bounds = np.unique(np.quantile(keys, np.linspace(0.0, 1.0, nparts + 1)))
    lo, hi = float(bounds[1]), float(bounds[-2])
    dests = kernels.route(bounds, round_batch.keys)
    payload = kernels.encode_values(memtable_batch.rids, memtable_batch.value_size)
    calls: dict[str, tuple[Callable[[], Any], int]] = {
        "route": (lambda: kernels.route(bounds, round_batch.keys), len(round_batch)),
        "group_runs": (lambda: kernels.group_runs(dests), len(round_batch)),
        "interval_mask": (
            lambda: kernels.interval_mask(round_batch.keys, lo, hi, False), len(round_batch)),
        "encode_values": (
            lambda: kernels.encode_values(memtable_batch.rids, memtable_batch.value_size),
            len(memtable_batch)),
        "decode_values": (
            lambda: kernels.decode_values(payload, memtable_batch.value_size),
            len(memtable_batch)),
        "range_mask": (
            lambda: kernels.range_mask(memtable_batch.keys, lo, hi), len(memtable_batch)),
    }
    return {
        f"kernels.{slot}_ns_per_rec": _median_ns(call) / n for slot, (call, n) in calls.items()
    }


def _cost_metrics(costs: list[tuple[str, int, int, int, int]], suffix: str) -> dict[str, float]:
    n = len(costs)
    return {
        f"query.ssts_read_per_query{suffix}": _ratio(sum(c[1] for c in costs), n),
        f"query.bytes_read_per_query{suffix}": _ratio(sum(c[2] for c in costs), n),
        f"query.scanned_per_match{suffix}": _ratio(sum(c[3] for c in costs), sum(c[4] for c in costs)),
    }


def _service_latencies(folded: Folded, m: Measurement) -> tuple[float, float]:
    """(hit p50, miss wait p50) in ms: what the service adds around the engine."""
    hits = [(row[1] - row[0]) / 1e6 for row in m.served if row[4]]
    engine: dict[tuple[float, float], list[tuple[int, int]]] = {}
    for start, end, tag in folded.spans("query"):
        engine.setdefault(tag, []).append((start, end))
    waits = []
    for t0, t1, lo, hi, cached, *_cost in m.served:
        if cached:
            continue
        # the reply was not cached, so this request's worker ran the engine
        # inside the client's own [t0, t1]
        inside = [(s, e) for s, e in engine.get((lo, hi), ()) if s >= t0 and e <= t1]
        if inside:
            waits.append(((t1 - t0) - (inside[0][1] - inside[0][0])) / 1e6)
    return (
        statistics.median(hits) if hits else 0.0,
        statistics.median(waits) if waits else 0.0,
    )


def layer_metrics(
    workload: Workload, folded: Folded, untraced: Measurement, traced: Measurement
) -> dict[str, float]:
    """Every per-layer metric, from the traced measurement of ``workload``."""
    m = traced
    mrec = m.records_ingested / 1e6
    epochs = m.epochs_ingested
    queries = folded.calls("query")

    def write_ms(*names: str) -> float:
        return _ratio(folded.self_total_ns(*names) / 1e6, mrec)

    def read_ms(*names: str) -> float:
        return _ratio(folded.self_total_ns(*names) / 1e6, queries)

    storage = m.storage
    hit_ms, wait_ms = _service_latencies(folded, m)
    served = m.service.get("cache_hits", 0) + m.service.get("cache_misses", 0)
    out = {
        "api.ingest_epoch_ms": _ratio(folded.total_ns("ingest") / 1e6, mrec),
        "api.query_ms": _ratio(folded.total_ns("session_query") / 1e6,
                               folded.calls("session_query")),
        "api.serve_start_ms": _ratio(folded.total_ns("serve_start") / 1e6,
                                     folded.calls("serve_start")),
        "core.driver_self_ms": write_ms("epoch"),
        "core.batch_constructions_per_krec": _ratio(
            folded.count("batch_constructions", "ingest"), m.records_ingested / 1e3),
        "core.select_calls_per_krec": _ratio(
            folded.count("select_calls", "ingest"), m.records_ingested / 1e3),
        "core.reneg_ms": write_ms("renegotiate"),
        "core.reneg_count": _ratio(folded.calls("renegotiate"), epochs),
        "core.pivots_ms": write_ms("pivots", "observe"),
        "core.oob_ms": write_ms("oob_add", "oob_drain"),
        "shuffle.route_ms": write_ms("route"),
        "shuffle.split_ms": write_ms("split"),
        "shuffle.queue_ms": write_ms("send", "tick", "drain"),
        "shuffle.messages_per_epoch": _ratio(folded.calls("send"), epochs),
        "storage.koidb_ingest_self_ms": write_ms("deliver"),
        "storage.koidb_ingest_calls_per_epoch": _ratio(folded.calls("deliver"), epochs),
        "storage.sst_build_ms": write_ms("sst_build"),
        "storage.log_append_ms": write_ms("log_append"),
        "storage.epoch_commit_ms": write_ms("finish_epoch", "flush_epoch"),
        # from KoiDB.stats of the sessions the workload ingested with (for
        # the read-only workloads: the store their set-up built)
        "storage.ssts_written_per_epoch": _ratio(
            storage.get("ssts_written", 0), storage.get("records_in", 0) / workload.scale.epoch_records),
        "storage.bytes_written_per_epoch": _ratio(
            storage.get("bytes_written", 0), storage.get("records_in", 0) / workload.scale.epoch_records),
        "storage.stray_share": _ratio(storage.get("stray_records", 0), storage.get("records_in", 0)),
        "storage.pin_snapshot_ms": write_ms("pin_snapshot"),
        "storage.sst_read_ms": read_ms("decode"),
        "storage.sst_read_keys_ms": read_ms("decode_keys"),
        "query.open_ms": _ratio(folded.total_ns("open") / 1e6, folded.calls("open")),
        "query.opens": float(folded.calls("open")),
        "query.select_ms": read_ms("select"),
        "query.probe_self_ms": read_ms("probe"),
        "query.mask_ms": read_ms("mask"),
        "query.merge_self_ms": read_ms("query"),
        "query.response_ms": read_ms("response"),
        **_cost_metrics(m.costs, ""),
        **_cost_metrics([c for c in m.costs if c[0] == spec.NARROW_CLASS], ".narrow"),
        **_cost_metrics([c for c in m.costs if c[0] == spec.WIDE_CLASS], ".wide"),
        "query.service_hit_ms_p50": hit_ms,
        "query.service_wait_ms_p50": wait_ms,
        "query.cache_hit_ratio": _ratio(m.service.get("cache_hits", 0), served),
        "query.engine_queries": float(m.service.get("engine_queries", 0)),
        "query.invalidations": float(m.service.get("invalidations", 0)),
        "query.rejected": float(m.service.get("rejected", 0)),
        "exec.tasks_submitted": float(folded.count("tasks_submitted")),
        **kernel_timings(workload),
        "trace_overhead_x": _ratio(traced.work_s, untraced.work_s),
        "trace_coverage": folded.coverage(),
    }
    declared = [name for name, _unit in spec.PER_LAYER]
    if sorted(out) != sorted(declared):
        raise AssertionError(
            f"per-layer table out of step: {sorted(set(out) ^ set(declared))}"
        )
    return {name: float(out[name]) for name in declared}
