"""End-to-end recording: CarpRun + KoiDB + queries under one Obs stack.

The acceptance contract for the observability subsystem: a recorded
run yields a Perfetto-valid trace with one track per subsystem, and
every metrics counter reconciles exactly with the statistics the run
maintains for itself (``EpochStats`` / ``KoiDBStats``).
"""

import numpy as np
import pytest

from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.obs import NULL_OBS, Obs, validate_trace_events
from repro.query.engine import PartitionedStore
from repro.sim.engine import simulate_ingestion

NRANKS = 8
OPTS = CarpOptions(pivot_count=32, oob_capacity=32,
                   renegotiations_per_epoch=3, memtable_records=256,
                   round_records=128, value_size=8)


def streams(seed=0, n=600):
    rng = np.random.default_rng(seed)
    return [
        RecordBatch.from_keys(rng.lognormal(size=n).astype(np.float32),
                              rank=r, value_size=8)
        for r in range(NRANKS)
    ]


@pytest.fixture
def recorded(tmp_path):
    obs = Obs.recording()
    stats = []
    with CarpRun(NRANKS, tmp_path, OPTS, obs=obs) as run:
        for epoch in range(2):
            stats.append(run.ingest_epoch(epoch, streams(seed=epoch)))
        koidb = [db.stats for db in run.koidbs]
    return obs, stats, koidb, tmp_path


class TestTraceShape:
    def test_all_pipeline_track_types_present(self, recorded):
        obs, _, _, _ = recorded
        assert {"route", "shuffle", "renegotiate", "flush", "epoch"} <= set(
            obs.tracer.track_types
        )

    def test_trace_document_validates(self, recorded):
        obs, _, _, _ = recorded
        assert validate_trace_events(obs.tracer.to_doc()) == []
        assert obs.tracer.open_spans == {}
        assert obs.tracer.unmatched_ends == 0

    def test_one_route_lane_per_rank(self, recorded):
        obs, _, _, _ = recorded
        events = obs.tracer.events()
        route_pid = next(
            e["pid"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
            and e["args"]["name"] == "route"
        )
        lanes = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["pid"] == route_pid
        }
        assert lanes == {f"rank {r}" for r in range(NRANKS)}

    def test_epoch_spans_bracket_everything(self, recorded):
        obs, stats, _, _ = recorded
        events = obs.tracer.events()
        begins = [e for e in events if e["ph"] == "B" and
                  e["name"].startswith("epoch ")]
        assert len(begins) == len(stats)
        # timestamps strictly increase epoch over epoch (virtual clock
        # is monotonic across the whole run)
        ts = [e["ts"] for e in begins]
        assert ts == sorted(ts)


class TestMetricsReconciliation:
    def test_counters_match_epoch_stats(self, recorded):
        obs, stats, _, _ = recorded
        m = obs.metrics
        assert m.counter_value("carp.records_ingested") == sum(
            s.records for s in stats
        )
        assert m.counter_value("reneg.rounds") == sum(
            s.renegotiations for s in stats
        )
        assert m.counter_value("reneg.messages") == sum(
            rs.total_messages for s in stats for rs in s.reneg_stats
        )
        assert m.counter_value("net.bytes_charged") == sum(
            rs.total_bytes for s in stats for rs in s.reneg_stats
        )

    def test_counters_match_koidb_stats(self, recorded):
        obs, _, koidb, _ = recorded
        m = obs.metrics
        for metric, attr in [
            ("koidb.records_in", "records_in"),
            ("koidb.stray_records", "stray_records"),
            ("koidb.ssts_written", "ssts_written"),
            ("koidb.stray_ssts_written", "stray_ssts_written"),
            ("koidb.bytes_written", "bytes_written"),
            ("koidb.memtable_flushes", "memtable_flushes"),
        ]:
            assert m.counter_value(metric) == sum(
                getattr(s, attr) for s in koidb
            ), metric

    def test_every_shuffled_record_counted(self, recorded):
        obs, stats, _, _ = recorded
        assert obs.metrics.counter_value("carp.records_shuffled") == sum(
            s.records for s in stats
        )

    def test_query_counters(self, recorded):
        obs, _, _, out = recorded
        with PartitionedStore(out) as store:
            res = store.query(0, 0.5, 2.0, obs=obs)
        m = obs.metrics
        assert m.counter_value("query.read_requests") == res.cost.read_requests
        assert m.counter_value("query.probe_bytes") == res.cost.bytes_read
        assert m.counter_value("query.ssts_read") == res.cost.ssts_read
        # the I/O model prices whole candidate SSTs, not the touched spans
        assert m.counter_value("io.bytes_charged") == res.cost.candidate_bytes


class TestDisabledPath:
    def test_null_obs_run_identical_to_unobserved(self, tmp_path):
        with CarpRun(NRANKS, tmp_path / "a", OPTS) as run:
            plain = run.ingest_epoch(0, streams())
        with CarpRun(NRANKS, tmp_path / "b", OPTS, obs=NULL_OBS) as run:
            nulled = run.ingest_epoch(0, streams())
        assert plain.records == nulled.records
        assert plain.stray_records == nulled.stray_records
        assert plain.renegotiations == nulled.renegotiations
        assert np.array_equal(plain.partition_loads, nulled.partition_loads)

    def test_null_obs_records_nothing(self, tmp_path):
        with CarpRun(NRANKS, tmp_path, OPTS, obs=NULL_OBS) as run:
            run.ingest_epoch(0, streams())
        assert NULL_OBS.tracer.events() == []
        assert NULL_OBS.metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }
        assert NULL_OBS.clock.now() == 0.0

    def test_default_is_null(self, tmp_path):
        with CarpRun(NRANKS, tmp_path, OPTS) as run:
            assert run.obs is NULL_OBS


class TestSimulatorSpans:
    def test_stall_and_idle_intervals_traced(self):
        obs = Obs.recording()
        res = simulate_ingestion(
            1e9, 5e8, 4e8, reneg_pauses=[0.05, 0.05],
            receiver_buffer_bytes=2e8, obs=obs,
        )
        events = obs.tracer.events()
        stalls = [e for e in events if e["name"] == "stall"]
        renegs = [e for e in events if e["name"] == "renegotiation"]
        assert stalls and all(e["ph"] == "X" for e in stalls)
        assert len(renegs) == 2
        # traced stall time sums to the result's stall accounting
        traced = sum(e["dur"] for e in stalls) / 1e6
        assert traced == pytest.approx(res.shuffle_stall_time, rel=0.05)
        assert obs.metrics.counter_value("sim.stall_seconds") == pytest.approx(
            res.shuffle_stall_time
        )

    def test_disabled_sim_emits_nothing(self):
        res = simulate_ingestion(1e9, 5e8, 4e8, obs=None)
        assert res.duration > 0
