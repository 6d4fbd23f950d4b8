"""ChromeTracer: ordering, out-of-order closes, schema validation."""

import json
from pathlib import Path

from repro.obs import ChromeTracer, NullTracer, Tracer, validate_trace_events

GOLDEN = Path(__file__).parent / "golden_trace.json"


def canonical_trace() -> ChromeTracer:
    """The fixed event sequence behind the golden-file test."""
    t = ChromeTracer()
    route = t.track("route", "rank 0")
    shuffle = t.track("shuffle", "fabric")
    t.begin(route, "route", 0.0, {"records": 128})
    t.complete(shuffle, "deliver", 0.5, 0.25, {"records": 64})
    t.instant(shuffle, "renegotiation", 0.75)
    t.end(route, 1.0)
    return t


class TestTrackAssignment:
    def test_same_track_resolves_to_same_ids(self):
        t = ChromeTracer()
        assert t.track("route", "rank 0") == t.track("route", "rank 0")

    def test_threads_get_distinct_tids_within_process(self):
        t = ChromeTracer()
        a = t.track("route", "rank 0")
        b = t.track("route", "rank 1")
        assert a[0] == b[0]
        assert a[1] != b[1]

    def test_processes_get_distinct_pids(self):
        t = ChromeTracer()
        assert t.track("route")[0] != t.track("flush")[0]

    def test_track_types_in_creation_order(self):
        t = ChromeTracer()
        t.track("route")
        t.track("flush")
        t.track("route", "rank 9")
        assert t.track_types == ["route", "flush"]

    def test_metadata_events_emitted_once_per_track(self):
        t = ChromeTracer()
        t.track("route", "rank 0")
        t.track("route", "rank 0")
        meta = [e for e in t.events() if e["ph"] == "M"]
        assert len(meta) == 2  # one process_name + one thread_name


class TestEventOrdering:
    def test_metadata_sorts_before_spans(self):
        t = canonical_trace()
        events = t.events()
        phases = [e["ph"] for e in events]
        n_meta = phases.count("M")
        assert all(ph == "M" for ph in phases[:n_meta])

    def test_events_sorted_by_timestamp(self):
        t = ChromeTracer()
        a = t.track("route")
        # emitted out of timestamp order
        t.complete(a, "late", 5.0, 1.0)
        t.complete(a, "early", 1.0, 1.0)
        names = [e["name"] for e in t.events() if e["ph"] == "X"]
        assert names == ["early", "late"]

    def test_same_ts_preserves_emission_order(self):
        t = ChromeTracer()
        a = t.track("route")
        t.begin(a, "outer", 1.0)
        t.begin(a, "inner", 1.0)
        t.end(a, 1.0)
        t.end(a, 1.0)
        spans = [(e["ph"], e["name"]) for e in t.events() if e["ph"] in "BE"]
        assert spans == [("B", "outer"), ("B", "inner"),
                        ("E", "inner"), ("E", "outer")]


class TestOutOfOrderCloses:
    def test_end_pops_innermost_open_span(self):
        t = ChromeTracer()
        a = t.track("route")
        t.begin(a, "outer", 0.0)
        t.begin(a, "inner", 1.0)
        t.end(a, 2.0)
        assert t.open_spans == {a: ["outer"]}
        t.end(a, 3.0)
        assert t.open_spans == {}
        assert t.unmatched_ends == 0

    def test_unmatched_end_counted_not_recorded(self):
        t = ChromeTracer()
        a = t.track("route")
        t.end(a, 1.0)
        assert t.unmatched_ends == 1
        assert [e for e in t.events() if e["ph"] == "E"] == []
        # document stays valid: no dangling E events
        assert validate_trace_events(t.to_doc()) == []

    def test_interleaved_tracks_close_independently(self):
        t = ChromeTracer()
        a = t.track("route", "rank 0")
        b = t.track("route", "rank 1")
        t.begin(a, "ra", 0.0)
        t.begin(b, "rb", 0.5)
        t.end(a, 1.0)  # a closes before b, tracks do not interfere
        t.end(b, 2.0)
        assert t.open_spans == {}
        assert validate_trace_events(t.to_doc()) == []


class TestValidation:
    def test_canonical_trace_validates(self):
        assert validate_trace_events(canonical_trace().to_doc()) == []

    def test_rejects_non_object_top_level(self):
        assert validate_trace_events([]) != []
        assert validate_trace_events({"events": []}) != []

    def test_rejects_unknown_phase(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "Q", "ts": 0.0, "pid": 1, "tid": 1}
        ]}
        assert any("phase" in p for p in validate_trace_events(doc))

    def test_rejects_negative_ts_and_missing_dur(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "i", "ts": -1.0, "pid": 1, "tid": 1},
            {"name": "y", "ph": "X", "ts": 0.0, "pid": 1, "tid": 1},
        ]}
        problems = validate_trace_events(doc)
        assert any("'ts'" in p for p in problems)
        assert any("'dur'" in p for p in problems)

    def test_detects_unbalanced_spans(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1}
        ]}
        assert any("unclosed" in p for p in validate_trace_events(doc))
        doc = {"traceEvents": [
            {"name": "x", "ph": "E", "ts": 0.0, "pid": 1, "tid": 1}
        ]}
        assert any("no open span" in p for p in validate_trace_events(doc))


class TestGoldenFile:
    def test_canonical_trace_matches_golden(self):
        """The emitted document is byte-stable against the checked-in
        golden file — any schema drift (field renames, ordering
        changes) must be a deliberate, reviewed update of the golden.
        """
        doc = canonical_trace().to_doc()
        golden = json.loads(GOLDEN.read_text())
        assert doc == golden

    def test_golden_file_itself_validates(self):
        assert validate_trace_events(json.loads(GOLDEN.read_text())) == []


class TestNullTracer:
    def test_null_is_base_tracer(self):
        assert NullTracer is Tracer

    def test_null_records_nothing(self, tmp_path):
        t = NullTracer()
        track = t.track("route", "rank 0")
        assert track == (0, 0)
        t.begin(track, "x", 0.0)
        t.end(track, 1.0)
        t.complete(track, "y", 0.0, 1.0)
        t.instant(track, "z", 0.0)
        assert t.events() == []
        path = t.write(tmp_path / "trace.json")
        assert json.loads(path.read_text()) == {
            "traceEvents": [], "displayTimeUnit": "ms"
        }
