"""HealthPolicy parsing and SLO evaluation over telemetry samples."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.health import (
    HealthPolicy,
    HealthRule,
    evaluate,
    parse_policy,
    parse_telemetry_lines,
)
from repro.query.engine import LATENCY_BOUNDS

REPO = Path(__file__).resolve().parents[2]
DEFAULT_POLICY = REPO / "configs" / "health_default.json"


def _sample(seq, kind="epoch", **sections):
    doc = {"kind": kind, "seq": seq, "ts": float(seq),
           "counters": {}, "gauges": {}, "histograms": {},
           "derived": {}}
    doc.update(sections)
    return doc


def _policy(*rules):
    return HealthPolicy(name="test", rules=tuple(rules))


def _default_rule(selector):
    """The committed default policy's rule over ``selector``."""
    policy = parse_policy(DEFAULT_POLICY.read_text())
    [rule] = [r for r in policy.rules if r.selector == selector]
    return rule


# ------------------------------------------------------------ rule shape


def test_rule_rejects_unknown_section():
    with pytest.raises(ValueError, match="must start with"):
        HealthRule(selector="bogus.thing", max=1.0)


def test_rule_needs_some_bound():
    with pytest.raises(ValueError, match="max must be a number"):
        parse_policy(json.dumps(
            {"rules": [{"selector": "counters.faults.torn_writes"}]}
        ))


def test_histogram_selector_needs_a_stat():
    with pytest.raises(ValueError, match="must end in"):
        HealthRule(selector="histograms.query.latency", max=1.0)
    # a metric name containing dots parses: stat is the last component
    HealthRule(selector="histograms.query.latency.p99", max=1.0)


# --------------------------------------------------------------- parsing


def test_parse_policy_json_roundtrip():
    doc = {
        "name": "demo",
        "rules": [
            {"selector": "derived.read_amp", "max": 10.0,
             "description": "bounded amplification"},
            {"selector": "counters.faults.manifest_write_crashes", "max": 0},
        ],
    }
    policy = parse_policy(json.dumps(doc))
    assert policy.name == "demo"
    assert policy.rules[0].max == 10.0
    assert policy.rules[1].max == 0.0
    assert policy.rules[0].description == "bounded amplification"


def test_parse_policy_rejects_malformed_documents():
    with pytest.raises(ValueError, match="rules"):
        parse_policy(json.dumps({"name": "x"}))
    with pytest.raises(ValueError, match="selector"):
        parse_policy(json.dumps({"rules": [{"max": 1}]}))
    with pytest.raises(ValueError, match="must be a number"):
        parse_policy(json.dumps(
            {"rules": [{"selector": "counters.x", "max": "big"}]}
        ))
    # a key the evaluator does not read would loosen the gate unseen
    with pytest.raises(ValueError, match="unknown key.*over"):
        parse_policy(json.dumps(
            {"rules": [{"selector": "counters.x", "max": 0, "over": "any"}]}
        ))


def test_default_policy_file_parses():
    text = DEFAULT_POLICY.read_text()
    policy = parse_policy(text)
    assert policy.name == "carp-default"
    assert len(policy.rules) >= 5


def test_default_serve_p99_cap_is_one_bucket_above_the_baseline():
    """The serve p99 cap is the ``LATENCY_BOUNDS`` edge after the
    ``serve-mixed`` baseline's p99, so a p99 that moves two buckets up
    breaches it."""
    rule = _default_rule("histograms.serve.latency.p99")
    baseline = json.loads(
        (REPO / "results" / "baselines" / "serve-mixed.json").read_text()
    )
    [p99] = [
        row["value"] for row in baseline["rows"]
        if row["metric"] == "serve_latency_p99"
    ]
    edge = LATENCY_BOUNDS.index(p99)
    assert rule.max == LATENCY_BOUNDS[edge + 1]

    def status(observed):
        hist = {"p99": observed}
        sample = _sample(0, kind="final", histograms={"serve.latency": hist})
        return evaluate(_policy(rule), [sample]).results[0].status

    assert status(p99) == "ok"
    assert status(LATENCY_BOUNDS[edge + 2]) == "breach"


def test_default_query_p99_cap_is_one_bucket_above_the_ci_recording(
        tmp_path, capsys):
    """CI's ``carp trace`` recording passes the query p99 cap, which is
    the ``LATENCY_BOUNDS`` edge after that recording's p99, so a p99
    two buckets up breaches it."""
    out = tmp_path / "obs"
    assert main(["trace", "-o", str(out), "--ranks", "16", "--epochs", "3",
                 "--records", "1000"]) == 0
    capsys.readouterr()
    samples = parse_telemetry_lines(
        (out / "db" / "telemetry.jsonl").read_text()
    )
    rule = _default_rule("histograms.query.latency.p99")
    result = evaluate(_policy(rule), samples).results[0]
    assert result.status == "ok"
    edge = LATENCY_BOUNDS.index(result.observed)
    assert rule.max == LATENCY_BOUNDS[edge + 1]

    final = samples[-1]
    hist = final["histograms"]["query.latency"]
    worse = {**final, "histograms": {
        "query.latency": {**hist, "p99": LATENCY_BOUNDS[edge + 2]},
    }}
    assert evaluate(_policy(rule), [worse]).results[0].status == "breach"


# ------------------------------------------------------------ evaluation


def test_final_window_checks_only_the_last_sample():
    rule = HealthRule(selector="gauges.shuffle.in_flight_records", max=0)
    samples = [
        _sample(0, gauges={"shuffle.in_flight_records": 64.0}),
        _sample(1, kind="final", gauges={"shuffle.in_flight_records": 0.0}),
    ]
    report = evaluate(_policy(rule), samples)
    (result,) = report.results
    assert result.status == "ok"
    assert result.observed == 0.0


def test_ticks_are_ignored_by_evaluation():
    rule = HealthRule(selector="counters.faults.manifest_write_crashes", max=0)
    samples = [
        _sample(0, kind="final", counters={"faults.manifest_write_crashes": 0}),
        {"kind": "tick", "seq": 1, "ts": 10.0,
         "counters": {"faults.manifest_write_crashes": 5}, "gauges": {}},
    ]
    report = evaluate(_policy(rule), samples)
    assert report.results[0].status == "ok"
    assert report.samples_seen == 1


def test_unresolved_selector_is_skipped_not_breached():
    rule = HealthRule(selector="counters.fsck.quarantined_files", max=0)
    report = evaluate(_policy(rule), [_sample(0, kind="final")])
    (result,) = report.results
    assert result.status == "skipped"
    assert "absent" in result.note
    assert report.ok


def test_empty_stream_skips_every_rule():
    rule = HealthRule(selector="derived.read_amp", max=10.0)
    report = evaluate(_policy(rule), [])
    assert report.results[0].status == "skipped"
    assert report.samples_seen == 0


def test_histogram_stat_selector_resolves():
    rule = HealthRule(selector="histograms.query.latency.p99", max=1.0)
    hist = {"bounds": [0.1, 1.0], "counts": [0, 0, 3], "count": 3,
            "sum": 15.0, "mean": 5.0, "min": 4.0, "max": 6.0,
            "p50": 6.0, "p95": 6.0, "p99": 6.0}
    samples = [_sample(0, kind="final",
                       histograms={"query.latency": hist})]
    report = evaluate(_policy(rule), samples)
    (result,) = report.results
    assert result.status == "breach"
    assert result.observed == 6.0


def test_report_render_and_to_dict():
    rule = HealthRule(selector="derived.faults_total", max=0,
                      description="clean run")
    report = evaluate(
        _policy(rule),
        [_sample(0, kind="final", derived={"faults_total": 2.0})],
    )
    text = report.render()
    assert "1 breach(es)" in text
    assert "derived.faults_total" in text
    assert "clean run" in text
    doc = report.to_dict()
    assert doc["ok"] is False
    assert doc["results"][0]["status"] == "breach"
    assert doc["results"][0]["observed"] == 2.0


# --------------------------------------------------------- stream parsing


def test_parse_telemetry_lines_tolerates_blanks():
    text = '{"kind": "epoch", "seq": 0}\n\n{"kind": "final", "seq": 1}\n'
    samples = parse_telemetry_lines(text)
    assert [s["seq"] for s in samples] == [0, 1]


def test_parse_telemetry_lines_names_the_bad_line():
    text = '{"kind": "epoch"}\nnot json\n'
    with pytest.raises(ValueError, match="line 2"):
        parse_telemetry_lines(text)
    with pytest.raises(ValueError, match="line 1"):
        parse_telemetry_lines("[1, 2]\n")
