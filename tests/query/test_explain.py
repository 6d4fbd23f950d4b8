"""EXPLAIN reports: exact reconciliation with the executed query."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import Session
from repro.core.config import CarpOptions
from repro.obs import Obs
from repro.query.engine import PartitionedStore
from repro.query.explain import QueryExplain
from repro.query.request import QueryRequest
from repro.storage.compactor import compact_epoch
from repro.traces.vpic import VpicTraceSpec, generate_timestep

RANGES = [
    (0, 0.1, 0.5, False),
    (0, 1.0, 10.0, False),
    (0, 30.0, 60.0, True),
    (1, 0.5, 2.0, False),
    (0, -5.0, -1.0, False),  # empty result
    (0, 0.1, 0.5, True),
]


@pytest.fixture(scope="module")
def store(carp_output):
    with PartitionedStore(carp_output["dir"]) as s:
        yield s


@pytest.mark.parametrize("epoch,lo,hi,keys_only", RANGES)
def test_explain_reconciles_with_measured_cost(store, epoch, lo, hi,
                                               keys_only):
    report = store.explain(epoch, lo, hi, keys_only=keys_only)
    measured = store.query(epoch, lo, hi, keys_only=keys_only).cost
    assert report.reconcile(measured) == []
    assert report.cost == measured


#: Ranges that probe at least one log on both layouts, so every case
#: checks span against row.
PROBE_RANGES = [
    (0, 0.1, 0.5, False),
    (0, 1.0, 10.0, False),
    (1, 0.5, 2.0, False),
    (0, 0.1, 0.5, True),
    (0, 1.0, 10.0, True),
]


@pytest.fixture(scope="module")
def compacted(tmp_path_factory, carp_output):
    """The compacted layout of each epoch the tests query, by epoch."""
    out = tmp_path_factory.mktemp("compacted")
    return {
        epoch: compact_epoch(carp_output["dir"], out, epoch, sst_records=1024)
        for epoch in sorted({r[0] for r in RANGES + PROBE_RANGES})
    }


def _probe_spans(carp_output, compacted, layout, epoch, lo, hi, keys_only):
    """A query's ``probe`` spans and the same range's EXPLAIN report."""
    directory = carp_output["dir"] if layout == "carp" else compacted[epoch]
    obs = Obs.recording()
    with PartitionedStore(directory) as s:
        report = s.explain(epoch, lo, hi, keys_only=keys_only, obs=obs)
        s.query(epoch, lo, hi, keys_only=keys_only, obs=obs)
    spans = [e for e in obs.tracer.to_doc()["traceEvents"]
             if e["ph"] == "X" and e["name"] == "probe"]
    return spans, report


@pytest.mark.parametrize("layout", ["carp", "compacted"])
@pytest.mark.parametrize("epoch,lo,hi,keys_only", PROBE_RANGES)
def test_query_probe_spans_carry_explain_rows(carp_output, compacted,
                                              layout, epoch, lo, hi,
                                              keys_only):
    """Each per-log ``probe`` span of a query is that log's EXPLAIN row."""
    spans, report = _probe_spans(carp_output, compacted, layout,
                                 epoch, lo, hi, keys_only)
    probed = [log for log in report.logs if log.ssts_read]
    assert probed, "every case must probe at least one log"
    assert [span["args"]["log"] for span in spans] == [l.log for l in probed]
    for span, log in zip(spans, probed):
        # a per-log probe span's ``ssts`` arg is its read-request count
        assert span["args"]["ssts"] == log.read_requests
        assert span["args"]["bytes"] == log.bytes_read
        assert span["args"]["scanned"] == log.records_scanned
        assert span["args"]["matched"] == log.records_matched
        assert span["dur"] == log.read_time


@pytest.mark.parametrize("layout", ["carp", "compacted"])
def test_a_range_that_probes_nothing_emits_no_probe_span(carp_output,
                                                         compacted, layout):
    spans, report = _probe_spans(carp_output, compacted, layout,
                                 0, -5.0, -1.0, False)
    assert spans == []
    assert report.logs, "the plan still lists the logs it considered"
    assert all(log.ssts_read == 0 for log in report.logs)


def test_explain_covers_every_log_with_epoch_data(store):
    report = store.explain(0, 0.5, 2.0)
    # one row per log holding epoch data, including logs the range
    # never touches (zero-filled), so the plan shows what was *pruned*
    readers_with_data = {idx for idx, _ in store.entries(0)}
    assert len(report.logs) == len(readers_with_data)
    for log in report.logs:
        assert log.ssts_read == len(log.entries)
        assert log.ssts_read <= log.ssts_considered
    # a selective range must actually prune SSTs somewhere
    assert report.cost.ssts_read < report.cost.ssts_considered


def test_explain_on_compacted_store(sorted_output):
    with PartitionedStore(sorted_output) as store:
        epoch = store.epochs()[0]
        lo, hi = store.key_range(epoch)
        report = store.explain(epoch, lo, (lo + hi) / 2)
        measured = store.query(epoch, lo, (lo + hi) / 2).cost
        assert report.reconcile(measured) == []


def test_explain_records_no_observability(carp_output):
    obs = Obs.recording()
    with PartitionedStore(carp_output["dir"]) as store:
        before_events = len(obs.tracer.to_doc()["traceEvents"])
        before_metrics = json.dumps(obs.metrics.snapshot(), sort_keys=True)
        store.explain(0, 0.5, 2.0, obs=obs)
        assert len(obs.tracer.to_doc()["traceEvents"]) == before_events
        assert json.dumps(obs.metrics.snapshot(),
                          sort_keys=True) == before_metrics


def test_reconcile_flags_tampered_cost(store):
    report = store.explain(0, 0.5, 2.0)
    bad_cost = dataclasses.replace(report.cost,
                                   bytes_read=report.cost.bytes_read + 1)
    tampered = dataclasses.replace(report, cost=bad_cost)
    errors = tampered.reconcile()
    assert errors and any("bytes_read" in e for e in errors)
    # and a measured-cost mismatch is reported field-by-field
    errors = report.reconcile(bad_cost)
    assert errors and any("measured" in e for e in errors)


def test_report_serializes_and_renders(store):
    report = store.explain(0, 0.5, 2.0, keys_only=True)
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["epoch"] == 0
    assert doc["keys_only"] is True
    assert len(doc["logs"]) == len(report.logs)
    assert doc["cost"]["latency"] == report.cost.latency
    text = report.render_text()
    assert "EXPLAIN epoch 0" in text
    assert "keys only" in text
    for log in report.logs:
        assert log.log in text


def test_session_explain_passthrough(tmp_path):
    spec = VpicTraceSpec(nranks=4, particles_per_rank=400, value_size=8,
                         seed=3)
    options = CarpOptions(pivot_count=32, oob_capacity=32,
                          renegotiations_per_epoch=2, memtable_records=256,
                          round_records=128, value_size=8)
    with Session(spec.nranks, tmp_path, options) as session:
        session.ingest_epoch(0, generate_timestep(spec, 0))
        request = QueryRequest(lo=0.5, hi=2.0, epoch=0)
        report = session.explain(request)
        assert isinstance(report, QueryExplain)
        assert report.reconcile(session.query(request).cost) == []


def test_report_shows_touched_vs_skipped(store):
    """Candidate bytes, bytes read and the difference, per log and total."""
    report = store.explain(0, 0.5, 0.6)
    measured = store.query(0, 0.5, 0.6).cost
    assert report.reconcile(measured) == []
    cost = report.cost
    assert 0 < cost.bytes_read < cost.candidate_bytes
    assert sum(l.candidate_bytes for l in report.logs) == cost.candidate_bytes
    for log in report.logs:
        assert log.candidate_bytes == sum(e.length for e in log.entries)
        assert log.bytes_skipped == log.candidate_bytes - log.bytes_read >= 0
    doc = report.to_dict()
    assert doc["cost"]["bytes_skipped"] == cost.candidate_bytes - cost.bytes_read
    assert [l["bytes_skipped"] for l in doc["logs"]] == [
        l.bytes_skipped for l in report.logs
    ]
    text = report.render_text()
    assert "candidate" in text and "skipped" in text
    # a tampered per-log candidate column is caught like any other
    bad = dataclasses.replace(
        report.logs[0], candidate_bytes=report.logs[0].candidate_bytes + 1
    )
    tampered = dataclasses.replace(report, logs=(bad,) + report.logs[1:])
    assert any("candidate_bytes" in e for e in tampered.reconcile())
