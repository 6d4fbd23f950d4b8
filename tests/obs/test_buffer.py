"""BufferingTracer: rank-local span recording and driver-side replay."""

import json

from repro.obs import BufferingTracer, ChromeTracer, validate_trace_events


def _filled(tracer: BufferingTracer) -> None:
    flush = tracer.track("flush", "rank 0")
    tracer.begin(flush, "flush", 0.0, {"records": 10})
    tracer.end(flush, 0.5)
    tracer.complete(flush, "flush", 1.0, 0.25, {"records": 4, "stray": True})
    tracer.instant(flush, "checkpoint", 1.5)


class TestRecording:
    def test_drain_returns_and_clears(self):
        tracer = BufferingTracer()
        _filled(tracer)
        records = tracer.drain()
        assert [r["ph"] for r in records] == ["B", "E", "X", "i"]
        assert tracer.drain() == []

    def test_events_peeks_without_consuming(self):
        tracer = BufferingTracer()
        _filled(tracer)
        assert len(tracer.events()) == 4
        assert len(tracer.drain()) == 4

    def test_records_carry_names_not_ids(self):
        tracer = BufferingTracer()
        _filled(tracer)
        rec = tracer.drain()[0]
        assert rec["process"] == "flush"
        assert rec["thread"] == "rank 0"

    def test_unmatched_end_counted_not_recorded(self):
        tracer = BufferingTracer()
        track = tracer.track("flush", "rank 0")
        tracer.end(track, 1.0)
        assert tracer.unmatched_ends == 1
        assert tracer.drain() == []


class TestMerge:
    def test_round_trip_equals_direct_recording(self):
        """Record via buffer + merge == record directly on ChromeTracer."""
        direct = ChromeTracer()
        _filled_direct = direct.track("flush", "rank 0")
        direct.begin(_filled_direct, "flush", 0.0, {"records": 10})
        direct.end(_filled_direct, 0.5)
        direct.complete(_filled_direct, "flush", 1.0, 0.25,
                        {"records": 4, "stray": True})
        direct.instant(_filled_direct, "checkpoint", 1.5)

        buffered = BufferingTracer()
        _filled(buffered)
        merged = ChromeTracer()
        merged.merge_events(buffered.drain())

        assert json.dumps(merged.to_doc(), sort_keys=True) == json.dumps(
            direct.to_doc(), sort_keys=True
        )
        assert validate_trace_events(merged.to_doc()) == []

    def test_merge_reuses_declared_tracks(self):
        driver = ChromeTracer()
        driver.track("flush", "rank 0")
        buffered = BufferingTracer()
        _filled(buffered)
        driver.merge_events(buffered.drain())
        assert driver.track_types == ["flush"]

    def test_merge_rejects_malformed_records(self):
        import pytest

        driver = ChromeTracer()
        with pytest.raises(ValueError):
            driver.merge_events([{"ph": "Z", "process": "flush",
                                  "thread": "rank 0", "name": "x",
                                  "ts": 0.0}])
        with pytest.raises(ValueError):
            driver.merge_events([{"ph": "B", "process": 3,
                                  "thread": "rank 0", "name": "x",
                                  "ts": 0.0}])

    def test_base_tracer_merge_is_noop(self):
        from repro.obs import NullTracer

        tracer = NullTracer()
        buffered = BufferingTracer()
        _filled(buffered)
        tracer.merge_events(buffered.drain())  # must not raise
        assert tracer.drain() == []


class TestRankStack:
    def test_for_rank_shares_registry_not_clock_or_tracer(self):
        from repro.obs import Obs

        driver = Obs.recording()
        driver.clock.advance(5.0)
        rank = driver.for_rank()
        assert rank.metrics is driver.metrics
        assert isinstance(rank.tracer, BufferingTracer)
        assert rank.clock is not driver.clock and rank.clock.now() == 0.0
        rank.metrics.counter("koidb.records_in").add(3)
        assert driver.metrics.counter_value("koidb.records_in") == 3

    def test_disabled_stack_hands_out_null_obs(self):
        from repro.obs import NULL_OBS

        assert NULL_OBS.for_rank() is NULL_OBS
