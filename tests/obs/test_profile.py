"""repro.obs.profile: folding, exact attribution, reconcile, diff.

The profile is a *derived artifact*: pure integer arithmetic over an
archived ``trace.json``, cross-checked exactly against the archived
``metrics.json``.  These tests pin the fold semantics (nesting by event
order, span counts, instance collapsing, arg merging), the
exact-reconciliation contract (drift is an error), and the byte
stability of every serialized form.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.profile import (
    Profile,
    diff_profiles,
    fold,
    fold_trace_doc,
)

GOLDEN = Path(__file__).parent / "golden_trace.json"


def _meta(pid: int, track: str) -> dict:
    return {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": track}}


def _b(pid: int, tid: int, name: str, ts: float, **args) -> dict:
    return {"name": name, "ph": "B", "ts": ts, "pid": pid, "tid": tid,
            "args": args}


def _e(pid: int, tid: int, ts: float, **args) -> dict:
    return {"ph": "E", "ts": ts, "pid": pid, "tid": tid, "args": args}


def _x(pid: int, tid: int, name: str, ts: float, dur: float,
       **args) -> dict:
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": pid,
            "tid": tid, "args": args}


class TestFold:
    def test_nested_spans_split_self_and_total(self):
        # the outer span's own args stay on the outer frame; the inner
        # span becomes its own frame one level deeper
        profile = fold([
            _meta(1, "flush"),
            _b(1, 1, "flush", 0.0, records=10),
            _b(1, 1, "write", 0.1),
            _e(1, 1, 0.4),
            _e(1, 1, 1.0, bytes=100),
        ])
        frames = profile.by_path()
        outer = frames["flush;flush"]
        inner = frames["flush;flush;write"]
        assert outer.count == inner.count == 1
        assert outer.bytes == 100 and outer.records == 10
        assert inner.bytes == inner.records == 0

    def test_nesting_ignores_timestamps(self):
        # ts and dur are never read: garbage or missing timestamps fold
        # exactly like well-formed ones, by per-lane event order alone
        timed = fold([
            _meta(1, "flush"),
            _b(1, 1, "flush", 0.0, records=10),
            _x(1, 1, "write", 0.1, 0.2, bytes=8),
            _e(1, 1, 1.0),
        ])
        untimed = fold([
            _meta(1, "flush"),
            {"name": "flush", "ph": "B", "pid": 1, "tid": 1,
             "args": {"records": 10}},
            {"name": "write", "ph": "X", "ts": "?", "pid": 1, "tid": 1,
             "args": {"bytes": 8}},
            {"ph": "E", "ts": -5.0, "pid": 1, "tid": 1},
        ])
        assert untimed.to_json() == timed.to_json()

    def test_complete_span_nests_under_open_begin(self):
        profile = fold([
            _meta(3, "query"),
            _b(3, 1, "query", 0.0),
            _x(3, 1, "probe", 0.2, 0.5, bytes=64, ssts=2),
            _e(3, 1, 1.0),
        ])
        frames = profile.by_path()
        assert set(frames) == {"probe;query", "probe;query;probe"}
        assert frames["probe;query;probe"].bytes == 64
        assert frames["probe;query;probe"].ssts == 2

    def test_instance_suffixes_collapse_to_one_frame(self):
        profile = fold([
            _meta(2, "epoch"),
            _x(2, 1, "epoch 0", 0.0, 1.0),
            _x(2, 1, "epoch 1", 1.0, 2.0),
        ])
        frames = profile.by_path()
        assert list(frames) == ["ingest;epoch"]
        assert frames["ingest;epoch"].count == 2

    def test_end_args_override_begin_args(self):
        profile = fold([
            _meta(1, "flush"),
            _b(1, 1, "flush", 0.0, bytes=1),
            _e(1, 1, 1.0, bytes=42),
        ])
        assert profile.by_path()["flush;flush"].bytes == 42

    def test_lanes_do_not_interleave(self):
        # two ranks flushing concurrently on separate tids must not
        # nest under each other
        profile = fold([
            _meta(1, "flush"),
            _b(1, 1, "flush", 0.0),
            _b(1, 2, "flush", 0.5),
            _e(1, 1, 1.0),
            _e(1, 2, 2.0),
        ])
        assert list(profile.by_path()) == ["flush;flush"]
        assert profile.by_path()["flush;flush"].count == 2

    def test_unknown_track_becomes_its_own_phase(self):
        profile = fold([
            _meta(9, "mystery"),
            _x(9, 1, "work", 0.0, 1.0),
        ])
        assert "mystery;work" in profile.by_path()

    def test_malformed_trace_counted(self):
        profile = fold([
            _meta(1, "flush"),
            _e(1, 1, 1.0),            # end with no begin
            _b(1, 1, "flush", 2.0),   # begin never closed
        ])
        assert profile.unmatched_ends == 1
        assert profile.unclosed_spans == 1
        errors = profile.reconcile({"counters": {}})
        assert any("unmatched" in e for e in errors)
        assert any("unclosed" in e for e in errors)

    def test_golden_trace_folds(self):
        doc = json.loads(GOLDEN.read_text())
        profile = fold_trace_doc(doc)
        assert profile.unmatched_ends == 0
        assert profile.unclosed_spans == 0
        # the golden trace's B/E route span and X shuffle span survive
        paths = set(profile.by_path())
        assert "route;route" in paths

    def test_fold_trace_doc_rejects_eventless_doc(self):
        with pytest.raises(ValueError, match="traceEvents"):
            fold_trace_doc({"schema": "nope"})


class TestFoldRequest:
    EVENTS = [
        _meta(1, "epoch"),
        _meta(2, "flush"),
        _b(1, 0, "epoch", 0.0, request="ingest-000001"),
        _b(1, 0, "plan", 0.5),  # opened outside any request
        _x(1, 0, "renegotiate", 0.6, 0.1, request="ingest-000001"),
        _e(1, 0, 0.9),
        _e(1, 0, 1.0),
        _b(2, 3, "flush", 0.2, request="ingest-000001", records=7),
        _e(2, 3, 0.4),
        _b(1, 0, "epoch", 2.0, request="ingest-000002"),
        _e(1, 0, 3.0),
    ]

    def test_unknown_request_gives_no_frames(self):
        profile = fold(self.EVENTS, request="query-000009")
        assert profile.frames == ()
        assert profile.unmatched_ends == profile.unclosed_spans == 0

    def test_nested_child_keeps_full_parent_path(self):
        frames = fold(self.EVENTS, request="ingest-000001").by_path()
        # the unattributed "plan" span is not a frame of its own but
        # still sits on the stack path of the attributed child
        assert set(frames) == {
            "ingest;epoch", "ingest;epoch;plan;renegotiate", "flush;flush",
        }
        assert frames["ingest;epoch"].count == 1  # not ingest-000002's
        assert frames["flush;flush"].records == 7

    def test_end_args_cannot_strip_begin_request(self):
        events = [
            _meta(1, "flush"),
            _b(1, 1, "flush", 0.0, request="ingest-000001"),
            _e(1, 1, 1.0, request=None, bytes=5),
            _b(1, 1, "flush", 2.0, request="ingest-000001"),
            _e(1, 1, 3.0, request="ingest-000002", bytes=6),
        ]
        frames = fold(events, request="ingest-000001").by_path()
        assert frames["flush;flush"].count == 2
        assert frames["flush;flush"].bytes == 11
        assert fold(events, request="ingest-000002").frames == ()


class TestReconcile:
    def _profile(self, records: int = 10) -> Profile:
        return fold([
            _meta(1, "flush"),
            _b(1, 1, "flush", 0.0, records=records),
            _e(1, 1, 1.0, bytes=100),
        ])

    def test_exact_match_is_clean(self):
        errors = self._profile().reconcile({"counters": {
            "koidb.records_in": 10,
            "koidb.bytes_written": 100,
        }})
        assert errors == []

    def test_one_record_of_drift_is_an_error(self):
        errors = self._profile(records=11).reconcile({"counters": {
            "koidb.records_in": 10,
            "koidb.bytes_written": 100,
        }})
        assert len(errors) == 1
        assert "koidb.records_in" in errors[0]
        assert "11" in errors[0] and "10" in errors[0]

    def test_attributed_work_without_counter_is_an_error(self):
        errors = self._profile().reconcile({"counters": {
            "koidb.bytes_written": 100,
        }})
        assert any("koidb.records_in" in e and "never recorded" in e
                   for e in errors)

    def test_unrecorded_subsystems_do_not_require_counters(self):
        # a flush-only profile must not demand query/compact counters
        errors = self._profile().reconcile({"counters": {
            "koidb.records_in": 10,
            "koidb.bytes_written": 100,
        }})
        assert errors == []

    def test_counters_must_be_a_mapping(self):
        errors = self._profile().reconcile({"counters": []})
        assert any("no counters mapping" in e for e in errors)


class TestSerialization:
    EVENTS = [
        _meta(1, "flush"),
        _meta(3, "query"),
        _b(1, 1, "flush", 0.0, records=7),
        _e(1, 1, 0.25, bytes=32),
        _b(3, 1, "query", 0.0),
        _x(3, 1, "probe", 0.1, 0.3, bytes=16, ssts=1),
        _e(3, 1, 1.5),
    ]

    def test_to_json_is_byte_stable(self):
        assert fold(self.EVENTS).to_json() == fold(self.EVENTS).to_json()

    def test_doc_roundtrip_preserves_frames(self):
        profile = fold(self.EVENTS)
        clone = Profile.from_doc(json.loads(profile.to_json()))
        assert clone.frames == profile.frames
        assert clone.to_json() == profile.to_json()

    def test_from_doc_rejects_other_schemas(self):
        with pytest.raises(ValueError, match="carp-profile-v2"):
            Profile.from_doc({"schema": "carp-trace-v1", "frames": []})

    def test_from_doc_rejects_v1_with_rerecord_hint(self):
        v1 = {"schema": "carp-profile-v1", "frames": []}
        with pytest.raises(ValueError, match=r"re-record .*carp-perf run"):
            Profile.from_doc(v1)

    def test_folded_lines_are_sorted_collapsed_stacks(self):
        profile = fold(self.EVENTS)
        lines = profile.to_folded().splitlines()
        assert lines == sorted(lines)
        counts = profile.by_path()
        for line in lines:
            path, weight = line.rsplit(" ", 1)
            assert ";" in path
            # each path is weighted by its span count
            assert int(weight) == counts[path].count

    def test_phase_rollup_is_internally_consistent(self):
        profile = fold(self.EVENTS)
        phases = profile.phases()
        assert phases == {"flush": {"frames": 1, "spans": 1},
                          "probe": {"frames": 2, "spans": 2}}
        assert sum(p["spans"] for p in phases.values()) == (
            profile.totals()["spans"]
        )
        assert sum(p["frames"] for p in phases.values()) == len(profile.frames)


class TestDiff:
    BASE = [
        _meta(1, "flush"),
        _b(1, 1, "flush", 0.0, records=5),
        _e(1, 1, 1.0, bytes=50),
    ]

    def test_identical_profiles_have_no_changed_paths(self):
        a = fold(self.BASE)
        diff = diff_profiles(a, fold(self.BASE))
        assert diff.changed() == ()
        assert diff.top_paths() == []
        assert diff.to_doc()["changed_paths"] == 0

    def test_regression_blamed_on_the_hot_path(self):
        slow = [
            _meta(1, "flush"),
            _b(1, 1, "flush", 0.0, records=5),
            _b(1, 1, "checksum", 0.2),   # injected hot span, twice
            _e(1, 1, 0.5),
            _b(1, 1, "checksum", 0.5),
            _e(1, 1, 0.9),
            _e(1, 1, 1.7, bytes=50),
        ]
        diff = diff_profiles(fold(self.BASE), fold(slow))
        assert diff.top_paths(3) == [("flush;flush;checksum", 2, 0)]
        doc = diff.to_doc()
        assert doc["count_delta"] == 2
        assert doc["entries"][0]["stack"] == ["flush", "flush", "checksum"]

    def test_span_delta_outranks_byte_delta(self):
        other = [
            _meta(1, "flush"),
            _b(1, 1, "flush", 0.0, records=5),
            _x(1, 1, "checksum", 0.1, 0.1),
            _e(1, 1, 1.0, bytes=5000),
        ]
        diff = diff_profiles(fold(self.BASE), fold(other))
        assert diff.top_paths() == [
            ("flush;flush;checksum", 1, 0), ("flush;flush", 0, 4950),
        ]

    def test_diff_json_is_byte_stable(self):
        a, b = fold(self.BASE), fold(self.BASE[:1])
        assert diff_profiles(a, b).to_json() == diff_profiles(a, b).to_json()

    def test_byte_delta_breaks_self_time_ties(self):
        # equal span counts: the byte delta decides the order
        bigger = [
            _meta(1, "flush"),
            _b(1, 1, "flush", 0.0, records=5),
            _e(1, 1, 1.0, bytes=80),
        ]
        diff = diff_profiles(fold(self.BASE), fold(bigger))
        assert diff.top_paths(1) == [("flush;flush", 0, 30)]
