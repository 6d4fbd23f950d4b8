"""TelemetryStream: cadences, derived gauges, null path."""

from __future__ import annotations

import io
import json

import pytest

from repro.api import Session
from repro.core.config import CarpOptions
from repro.obs import NULL_TELEMETRY, TelemetryStream
from repro.obs.clock import VirtualClock
from repro.obs.metrics import MetricsRegistry
from repro.query.request import QueryRequest
from repro.traces.vpic import VpicTraceSpec, generate_timestep


def _stream(interval=10.0, record_bytes=None):
    metrics = MetricsRegistry()
    clock = VirtualClock()
    sink = io.StringIO()
    stream = TelemetryStream(metrics, clock, sink, interval=interval,
                             record_bytes=record_bytes)
    return metrics, clock, sink, stream


def _lines(sink: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in sink.getvalue().splitlines()]


def test_interval_must_be_positive():
    metrics, clock = MetricsRegistry(), VirtualClock()
    with pytest.raises(ValueError):
        TelemetryStream(metrics, clock, io.StringIO(), interval=0.0)


def test_tick_fires_only_after_crossing_the_interval():
    metrics, clock, sink, stream = _stream(interval=10.0)
    metrics.counter("carp.records_ingested").add(5)
    assert stream.tick() is False  # clock has not moved
    clock.advance(9.0)
    assert stream.tick() is False
    clock.advance(1.0)
    assert stream.tick() is True
    assert stream.tick() is False  # next due 10 ticks later
    clock.advance(10.0)
    assert stream.tick() is True
    docs = _lines(sink)
    assert [d["kind"] for d in docs] == ["tick", "tick"]
    assert [d["ts"] for d in docs] == [10.0, 20.0]
    assert [d["seq"] for d in docs] == [0, 1]
    assert stream.lines_written == 2


def test_tick_is_restricted_to_driver_prefixes():
    metrics, clock, sink, stream = _stream()
    metrics.counter("carp.records_ingested").add(3)
    metrics.counter("koidb.records_in").add(7)  # worker-owned
    metrics.gauge("shuffle.in_flight_records").set(2)
    metrics.gauge("koidb.memtable_occupancy.r0").set(0.5)
    clock.advance(10.0)
    assert stream.tick() is True
    (doc,) = _lines(sink)
    assert doc["counters"] == {"carp.records_ingested": 3}
    assert doc["gauges"] == {"shuffle.in_flight_records": 2.0}


def test_sample_carries_full_registry():
    metrics, clock, sink, stream = _stream()
    counter = metrics.counter("koidb.records_in")
    metrics.histogram("query.latency", (0.1, 1.0)).observe(0.05)
    counter.add(10)
    first = stream.sample("epoch", epoch=0, request="ingest-000001")
    counter.add(4)
    second = stream.sample("epoch", epoch=1, request="ingest-000002")
    assert first["counters"] == {"koidb.records_in": 10}
    assert second["counters"] == {"koidb.records_in": 14}
    assert second["epoch"] == 1
    assert second["request"] == "ingest-000002"
    hist = second["histograms"]["query.latency"]
    assert hist["bounds"] == [0.1, 1.0]
    assert hist["counts"] == [1, 0, 0]
    # what was emitted is exactly what was returned
    assert _lines(sink) == [first, second]


def test_sample_omits_epoch_and_request_when_untagged():
    _, _, sink, stream = _stream()
    doc = stream.sample("final")
    assert "epoch" not in doc and "request" not in doc
    assert doc["kind"] == "final"


def test_derived_faults_total_and_read_amp():
    metrics, clock, sink, stream = _stream(record_bytes=12)
    metrics.counter("faults.manifest_write_crashes").add(2)
    metrics.counter("faults.torn_writes").add(1)
    metrics.counter("query.records_matched").add(10)
    metrics.counter("query.probe_bytes").add(600)
    doc = stream.sample("query")
    assert doc["derived"]["faults_total"] == 3.0
    # 600 bytes probed / (10 records * 12 B) = 5x amplification
    assert doc["derived"]["read_amp"] == pytest.approx(5.0)


def test_read_amp_zero_when_nothing_matched_or_unconfigured():
    metrics, _, _, stream = _stream(record_bytes=12)
    metrics.counter("query.probe_bytes").add(600)
    assert stream.sample("query")["derived"]["read_amp"] == 0.0
    _, _, _, bare = _stream(record_bytes=None)
    assert "read_amp" not in bare.sample("query")["derived"]


def test_stream_is_json_lines_with_sorted_keys():
    metrics, clock, sink, stream = _stream()
    metrics.counter("koidb.records_in").add(1)
    stream.sample("epoch", epoch=0)
    (raw,) = sink.getvalue().splitlines()
    assert raw == json.dumps(json.loads(raw), sort_keys=True)


def test_null_telemetry_never_writes():
    assert NULL_TELEMETRY.enabled is False
    assert NULL_TELEMETRY.tick() is False
    assert NULL_TELEMETRY.sample("epoch", epoch=0, request="x") == {}
    assert NULL_TELEMETRY.lines_written == 0


def test_request_ids_deterministic_and_attributed(tmp_path):
    """Full samples carry request ids in mint order, and each rank's
    flush spans carry the id of the epoch they belong to."""
    spec = VpicTraceSpec(nranks=6, particles_per_rank=500, value_size=8, seed=9)
    options = CarpOptions(
        pivot_count=32, oob_capacity=32, renegotiations_per_epoch=3,
        memtable_records=256, round_records=128, value_size=8,
    )
    with Session(spec.nranks, tmp_path, options, record=True,
                 telemetry=True) as session:
        for epoch in range(2):
            session.ingest_epoch(epoch, generate_timestep(spec, epoch))
        store = session.store()
        for epoch in store.epochs():
            lo, hi = store.key_range(epoch)
            for q in range(2):
                width = (hi - lo) / 8
                session.query(QueryRequest(
                    lo=lo + q * width, hi=lo + (q + 1) * width, epoch=epoch
                ))
        events = session.obs.tracer.to_doc()["traceEvents"]
    lines = [
        json.loads(line)
        for line in (tmp_path / "telemetry.jsonl").read_text().splitlines()
    ]
    full = [d for d in lines if d["kind"] != "tick"]
    assert [d.get("request") for d in full] == [
        "ingest-000001", "ingest-000002",
        "query-000001", "query-000002", "query-000003", "query-000004",
        None,  # the final sample belongs to no single request
    ]
    attribution = [
        (e.get("name"), e["args"]["request"])
        for e in events
        if isinstance(e.get("args"), dict) and "request" in e["args"]
    ]
    attributed = {rid for _, rid in attribution}
    assert "ingest-000001" in attributed
    assert "query-000001" in attributed
    flush_requests = {rid for name, rid in attribution if name == "flush"}
    assert flush_requests == {"ingest-000001", "ingest-000002"}
