"""Report edge cases: the phase section and the metrics table."""

from __future__ import annotations

from repro.obs.report import metrics_table, render_report


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


# -------------------------------------------------------- metrics table


def test_render_report_on_legacy_artifacts():
    text = render_report({}, {"counters": {}}, [])
    assert "CARP run" in text
    assert "Metrics snapshot" in text


def test_metrics_table_shows_sub_millisecond_latencies():
    """``LATENCY_BOUNDS`` start at 10 µs: a fixed two-decimal format
    printed every query latency as 0.00."""
    hist = {"count": 8, "mean": 2.5e-4, "p50": 1e-4, "p95": 5.6e-4,
            "p99": 1.8e-3, "max": 1.7e-3}
    text = metrics_table({"histograms": {"query.latency": hist}})
    assert "mean=0.00025 p50<=0.0001 p95<=0.00056 p99<=0.0018" in text
    assert "max=0.0017" in text
