"""The benchmark's fixed tables: workloads, metrics, bounds, scales.

``BENCHMARK.json`` at the repo root repeats the workload list, the
driver metrics and the per-layer names; ``ledger/test_ledger.py`` keeps
the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: How long one driver run measures (``run_seconds`` in BENCHMARK.json).
#: The repetition counts of :data:`FULL` are sized for this on the
#: 2-core box; ``--seconds`` scales them linearly, never adaptively, so
#: the same arguments always give the same inputs.
RUN_SECONDS = 30

RECORD_BYTES = 60

#: name -> why it exists (one line; README has the long form).
WORKLOADS: dict[str, str] = {
    "ingest-1m": (
        "3 drifting 1M-record epochs per fresh Session: only core + shuffle + "
        "storage write path run, the query layer is idle"
    ),
    "query-sweep": (
        "closed-loop Session.query over six selectivity classes on a live store, "
        "no cache: query engine + storage read path, read amplification"
    ),
    "serve-hot": (
        "2 closed-loop clients, Zipf over a pool 3x the result cache (~75% hits): "
        "service admission, fairness queue, single-flight cache, wake-ups"
    ),
    "serve-live": (
        "1 writer ingesting beside 1 reader of all-distinct ranges: shared files, "
        "re-pin at every commit, both sides on one GIL"
    ),
}

#: Query classes of ``query-sweep`` (name, selectivity, keys_only).
SWEEP_CLASSES: tuple[tuple[str, float, bool], ...] = (
    ("sel-0.01pct", 0.0001, False),
    ("sel-0.1pct", 0.001, False),
    ("sel-1pct", 0.01, False),
    ("sel-5pct", 0.05, False),
    ("sel-10pct", 0.10, False),
    ("keys-1pct", 0.01, True),
)


def class_name(selectivity: float) -> str:
    """``sel-0.1pct`` for 0.001: how a full-record class is called everywhere."""
    return f"sel-{selectivity * 100:g}pct"


NARROW_CLASS = "sel-0.1pct"
WIDE_CLASS = "sel-5pct"
KEYS_CLASS = "keys-1pct"
#: ``serve-hot`` draws its pool from these selectivities.
HOT_SELECTIVITIES: tuple[float, ...] = (0.0001, 0.001, 0.01, 0.05)
#: ``serve-live`` issues one class only, so its latency is unimodal.
LIVE_SELECTIVITY = 0.01


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # share of the baseline median it may worsen by
    workloads: tuple[str, ...]
    #: repeats bit-for-bit for a given seed (a count, not a timing)
    exact: bool = False


_ALL = tuple(WORKLOADS)

#: The ledger's sixteen end-to-end metrics (ISSUE 12), each owned by the
#: workloads that measure it.  ``compare`` and ``aa`` gate on these.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, _ALL),
    Metric("peak_rss_mb", "MB", "lower", 0.15, _ALL),
    Metric("failed_share", "ratio", "lower", 0.0, _ALL, exact=True),
    Metric("ingest_krec_s", "krec/s", "higher", 0.08, ("ingest-1m",)),
    Metric("write_amp", "x", "lower", 0.001, ("ingest-1m",), exact=True),
    Metric("query_narrow_ms_p50", "ms", "lower", 0.10, ("query-sweep",)),
    Metric("query_wide_ms_p50", "ms", "lower", 0.10, ("query-sweep",)),
    Metric("query_keysonly_ms_p50", "ms", "lower", 0.10, ("query-sweep",)),
    Metric("query_ms_p95", "ms", "lower", 0.15, ("query-sweep",)),
    Metric("query_narrow_read_amp", "x", "lower", 0.001, ("query-sweep",), exact=True),
    Metric("serve_qps", "1/s", "higher", 0.08, ("serve-hot",)),
    Metric("serve_ms_p50", "ms", "lower", 0.15, ("serve-hot",)),
    Metric("serve_ms_p95", "ms", "lower", 0.15, ("serve-hot",)),
    Metric("live_ingest_krec_s", "krec/s", "higher", 0.12, ("serve-live",)),
    Metric("live_query_ms_p50", "ms", "lower", 0.15, ("serve-live",)),
    Metric("live_query_ms_p95", "ms", "lower", 0.20, ("serve-live",)),
)

#: What ``BENCHMARK.json`` lists as ``end_to_end``.  The driver wants
#: every run of every workload to print every end-to-end metric, so
#: these six are defined on all four workloads (README, "Driver
#: metrics", says which ledger metric sits in which cell); the sixteen
#: above stay the vocabulary of ``run`` / ``compare`` / ``aa``.
DRIVER_METRICS: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, _ALL),
    Metric("peak_rss_mb", "MB", "lower", 0.15, _ALL),
    Metric("throughput_kops_s", "kops/s", "higher", 0.25, _ALL),
    Metric("latency_ms_p50", "ms", "lower", 0.25, _ALL),
    Metric("latency_ms_tail", "ms", "lower", 0.25, _ALL),
    Metric("io_amp", "x", "lower", 0.10, _ALL),
)

#: Per-layer metrics of the traced run (name, unit).  Every workload
#: reports all of them; a layer that a workload leaves idle reads 0,
#: which is itself the prediction ("the query layer does nothing on
#: ingest-1m").  Write-path times are self-time ms per 1M records
#: ingested inside the traced window, read-path times ms per engine
#: query, counts are exact.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("api.ingest_epoch_ms", "ms/Mrec"),
    ("api.query_ms", "ms/query"),
    ("api.serve_start_ms", "ms"),
    ("core.driver_self_ms", "ms/Mrec"),
    ("core.batch_constructions_per_krec", "1/krec"),
    ("core.select_calls_per_krec", "1/krec"),
    ("core.reneg_ms", "ms/Mrec"),
    ("core.reneg_count", "1/epoch"),
    ("core.pivots_ms", "ms/Mrec"),
    ("core.oob_ms", "ms/Mrec"),
    ("shuffle.route_ms", "ms/Mrec"),
    ("shuffle.split_ms", "ms/Mrec"),
    ("shuffle.queue_ms", "ms/Mrec"),
    ("shuffle.messages_per_epoch", "1/epoch"),
    ("storage.koidb_ingest_self_ms", "ms/Mrec"),
    ("storage.koidb_ingest_calls_per_epoch", "1/epoch"),
    ("storage.sst_build_ms", "ms/Mrec"),
    ("storage.log_append_ms", "ms/Mrec"),
    ("storage.epoch_commit_ms", "ms/Mrec"),
    ("storage.ssts_written_per_epoch", "1/epoch"),
    ("storage.bytes_written_per_epoch", "B/epoch"),
    ("storage.stray_share", "ratio"),
    ("storage.pin_snapshot_ms", "ms/Mrec"),
    ("storage.sst_read_ms", "ms/query"),
    ("storage.sst_read_keys_ms", "ms/query"),
    ("query.open_ms", "ms"),
    ("query.opens", "count"),
    ("query.select_ms", "ms/query"),
    ("query.probe_self_ms", "ms/query"),
    ("query.mask_ms", "ms/query"),
    ("query.merge_self_ms", "ms/query"),
    ("query.response_ms", "ms/query"),
    ("query.ssts_read_per_query", "1/query"),
    ("query.bytes_read_per_query", "B/query"),
    ("query.scanned_per_match", "ratio"),
    ("query.ssts_read_per_query.narrow", "1/query"),
    ("query.bytes_read_per_query.narrow", "B/query"),
    ("query.scanned_per_match.narrow", "ratio"),
    ("query.ssts_read_per_query.wide", "1/query"),
    ("query.bytes_read_per_query.wide", "B/query"),
    ("query.scanned_per_match.wide", "ratio"),
    ("query.service_hit_ms_p50", "ms"),
    ("query.service_wait_ms_p50", "ms"),
    ("query.cache_hit_ratio", "ratio"),
    ("query.engine_queries", "count"),
    ("query.invalidations", "count"),
    ("query.rejected", "count"),
    ("exec.tasks_submitted", "count"),
    ("kernels.route_ns_per_rec", "ns/rec"),
    ("kernels.group_runs_ns_per_rec", "ns/rec"),
    ("kernels.interval_mask_ns_per_rec", "ns/rec"),
    ("kernels.encode_values_ns_per_rec", "ns/rec"),
    ("kernels.decode_values_ns_per_rec", "ns/rec"),
    ("kernels.range_mask_ns_per_rec", "ns/rec"),
    ("trace_overhead_x", "x"),
    ("trace_coverage", "ratio"),
)
#: Every other per-layer metric is a cost: lower is better.
LAYERS_HIGHER_IS_BETTER = frozenset({"query.cache_hit_ratio", "trace_coverage"})


@dataclass(frozen=True)
class Scale:
    """Load shape and repetition counts of one run."""

    name: str
    nranks: int
    particles_per_rank: int
    setups: int  # set-ups per run; setup_s is their median
    ingest_reps: int
    sweep_anchors: int  # per class
    sweep_passes: int
    hot_pool: int
    hot_requests: int  # per client, timed
    hot_warmup: int  # per client, untimed: fills the result cache
    live_reps: int
    live_ranges: int  # pre-generated distinct ranges per repetition

    @property
    def epoch_records(self) -> int:
        return self.nranks * self.particles_per_rank

    def for_seconds(self, seconds: float) -> "Scale":
        """Repetition counts for a run of ``seconds`` (sized at RUN_SECONDS)."""
        k = seconds / RUN_SECONDS

        def n(count: int) -> int:
            return max(1, round(count * k))

        return replace(
            self,
            ingest_reps=n(self.ingest_reps),
            sweep_passes=n(self.sweep_passes),
            hot_requests=n(self.hot_requests),
            live_reps=n(self.live_reps),
        )

    def traced(self) -> "Scale":
        """A quarter of the repetitions: the traced run measures the same
        section twice (wrappers off, then on) to report its own overhead."""

        def q(count: int) -> int:
            return max(1, -(-count // 4))

        return replace(
            self,
            setups=1,
            ingest_reps=q(self.ingest_reps),
            sweep_passes=q(self.sweep_passes),
            hot_requests=q(self.hot_requests),
            live_reps=q(self.live_reps),
        )


FULL = Scale(
    name="full", nranks=16, particles_per_rank=65536, setups=3,
    ingest_reps=9, sweep_anchors=60, sweep_passes=10,
    hot_pool=400, hot_requests=7000, hot_warmup=500,
    live_reps=5, live_ranges=600,
)
#: Exists only so the harness itself can be tested; its numbers mean nothing.
SMOKE = Scale(
    name="smoke", nranks=4, particles_per_rank=4096, setups=1,
    ingest_reps=2, sweep_anchors=6, sweep_passes=2,
    hot_pool=40, hot_requests=100, hot_warmup=20,
    live_reps=2, live_ranges=200,
)
SCALES = {"full": FULL, "smoke": SMOKE}


def metrics_of(workload: str) -> tuple[Metric, ...]:
    return tuple(m for m in END_TO_END if workload in m.workloads)
