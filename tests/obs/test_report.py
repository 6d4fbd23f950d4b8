"""Report edge cases: the phase section and legacy metrics snapshots."""

from __future__ import annotations

from repro.obs.report import metrics_table, normalize_snapshot, render_report


def _meta(pid, name):
    return {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": name}}


def _begin(pid, name, ts):
    return {"ph": "B", "pid": pid, "tid": 0, "name": name, "ts": ts,
            "args": {}}


def _end(pid, ts):
    return {"ph": "E", "pid": pid, "tid": 0, "ts": ts}


# ------------------------------------------------------- phase section


def _phase_rows(text):
    """``{phase: (spans, frames)}`` parsed from the report's phase table."""
    lines = text.splitlines()
    start = lines.index("spans by phase") + 4  # title, rule, header, rule
    rows = {}
    for line in lines[start:]:
        if not line.strip():
            break
        phase, spans, frames = line.split()
        rows[phase] = (int(spans), int(frames))
    return rows


def test_duplicate_track_names_aggregate_in_summary():
    """Two pids declaring the same track type merge into one phase."""
    events = [
        _meta(1, "flush"),
        _meta(2, "flush"),
        _begin(1, "flush", 0.0), _end(1, 2.0),
        _begin(2, "flush", 1.0), _end(2, 4.0),
    ]
    assert _phase_rows(render_report({}, {}, events)) == {"flush": (2, 1)}


def test_duplicate_name_redeclaration_last_wins():
    events = [
        _meta(1, "flush"),
        _meta(1, "route"),  # pid 1 re-declared; later metadata wins
        _begin(1, "x", 0.0), _end(1, 1.0),
    ]
    assert _phase_rows(render_report({}, {}, events)) == {"route": (1, 1)}


# ------------------------------------------------------ legacy snapshots


def test_normalize_snapshot_fills_missing_sections():
    legacy = {"counters": {"koidb.records_in": 5}, "gauges": {}}
    normalized, notes = normalize_snapshot(legacy)
    assert normalized["histograms"] == {}
    assert normalized["counters"] == {"koidb.records_in": 5}
    assert any("histograms" in n for n in notes)
    assert not any("counters" in n for n in notes)


def test_normalize_snapshot_replaces_malformed_sections():
    broken = {"counters": "oops", "gauges": {}, "histograms": {}}
    normalized, notes = normalize_snapshot(broken)
    assert normalized["counters"] == {}
    assert any("malformed" in n for n in notes)


def test_normalize_snapshot_is_quiet_on_complete_input():
    complete = {"counters": {}, "gauges": {}, "histograms": {}}
    normalized, notes = normalize_snapshot(complete)
    assert notes == []
    assert normalized == complete


def test_metrics_table_survives_legacy_and_odd_values():
    snapshot, _ = normalize_snapshot({"counters": {"koidb.records_in": 5}})
    text = metrics_table(snapshot)
    assert "koidb.records_in" in text
    # non-numeric values degrade to str(), numeric histograms summarize
    weird = {
        "counters": {"koidb.note": "n/a"},
        "gauges": {"g": "broken"},
        "histograms": {"h": {"count": 2, "mean": "?", "p50": 1.0}},
    }
    text = metrics_table(weird)
    assert "n/a" in text and "broken" in text and "p50<=1.00" in text


def test_render_report_on_legacy_artifacts():
    snapshot, _ = normalize_snapshot({"counters": {}})
    text = render_report({}, snapshot, [])
    assert "CARP run" in text
    assert "Metrics snapshot" in text
