"""MetricsRegistry: bucketing edge cases, collisions, null no-ops."""

import json

import pytest

from repro.obs import Histogram, MetricsRegistry, NullMetricsRegistry


class TestCounter:
    def test_accumulates(self):
        c = MetricsRegistry().counter("x")
        c.add()
        c.add(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.add(-1)

    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")


class TestGauge:
    def test_set_overwrites(self):
        g = MetricsRegistry().gauge("occ")
        g.set(0.25)
        g.set(0.75)
        assert g.value == 0.75


class TestHistogramBucketing:
    def test_below_first_bound_lands_in_first_bucket(self):
        h = Histogram("h", (10, 20))
        h.observe(3)
        assert h.counts == [1, 0, 0]

    def test_exactly_on_bound_lands_in_that_bucket(self):
        # bounds are inclusive upper edges: v == bounds[i] -> bucket i
        h = Histogram("h", (10, 20))
        h.observe(10)
        h.observe(20)
        assert h.counts == [1, 1, 0]

    def test_above_last_bound_lands_in_overflow(self):
        h = Histogram("h", (10, 20))
        h.observe(20.0001)
        h.observe(1e9)
        assert h.counts == [0, 0, 2]

    def test_just_above_bound_spills_to_next_bucket(self):
        h = Histogram("h", (10, 20))
        h.observe(10.0001)
        assert h.counts == [0, 1, 0]

    def test_stats_track_extremes(self):
        h = Histogram("h", (1.0,))
        for v in (0.5, 2.0, 1.0):
            h.observe(v)
        assert h.count == 3
        assert h.min == 0.5
        assert h.max == 2.0
        assert h.mean == pytest.approx(3.5 / 3)

    def test_empty_histogram_to_dict(self):
        d = Histogram("h", (1.0,)).to_dict()
        assert d["count"] == 0
        assert d["min"] is None and d["max"] is None
        assert d["mean"] == 0.0

    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", (1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", (2.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", ())


class TestRegistry:
    def test_cross_type_name_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="different type"):
            reg.gauge("x")
        with pytest.raises(ValueError, match="different type"):
            reg.histogram("x", (1.0,))

    def test_histogram_rebounds_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0, 2.0))
        assert reg.histogram("h", (1.0, 2.0)).bounds == (1.0, 2.0)
        with pytest.raises(ValueError, match="different bounds"):
            reg.histogram("h", (1.0, 3.0))

    def test_counter_value_defaults_to_zero(self):
        assert MetricsRegistry().counter_value("never") == 0

    def test_snapshot_shape_and_ordering(self):
        reg = MetricsRegistry()
        reg.counter("b").add(2)
        reg.counter("a").add(1)
        reg.gauge("g").set(0.5)
        reg.histogram("h", (1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["gauges"] == {"g": 0.5}
        assert snap["histograms"]["h"]["count"] == 1
        # snapshot must round-trip through JSON unchanged
        assert json.loads(json.dumps(snap)) == snap

    def test_write_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("x").add(3)
        path = reg.write_json(tmp_path / "m" / "metrics.json")
        assert json.loads(path.read_text())["counters"] == {"x": 3}


class TestNullRegistry:
    def test_instruments_drop_writes(self):
        reg = NullMetricsRegistry()
        c = reg.counter("x")
        c.add(100)
        g = reg.gauge("y")
        g.set(1.0)
        h = reg.histogram("z", (1.0,))
        h.observe(5.0)
        assert c.value == 0
        assert g.value == 0.0
        assert h.count == 0
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_shared_instances(self):
        reg = NullMetricsRegistry()
        assert reg.counter("a") is reg.counter("b")
        assert reg.histogram("a", (1.0,)) is reg.histogram("b", (2.0, 3.0))


class TestHistogramQuantiles:
    def _hist(self):
        h = Histogram("h", (1.0, 2.0, 5.0, 10.0))
        for v in [0.5] * 50 + [1.5] * 30 + [4.0] * 15 + [8.0] * 4 + [100.0]:
            h.observe(v)
        return h

    def test_quantiles_are_bucket_upper_bounds(self):
        h = self._hist()
        # 50th sample sits in the first bucket (<=1.0), 95th in the
        # third (<=5.0), 99th in the fourth (<=10.0)
        assert h.quantile(0.50) == 1.0
        assert h.quantile(0.95) == 5.0
        assert h.quantile(0.99) == 10.0

    def test_overflow_quantile_reports_observed_max(self):
        h = self._hist()
        assert h.quantile(1.0) == 100.0

    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram("h", (1.0,))
        assert h.quantile(0.5) is None

    def test_out_of_range_q_rejected(self):
        h = self._hist()
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_to_dict_carries_bucket_boundaries_and_counts(self):
        d = self._hist().to_dict()
        assert d["bounds"] == [1.0, 2.0, 5.0, 10.0]
        # one count per bounded bucket plus the overflow bucket
        assert d["counts"] == [50, 30, 15, 4, 1]
        assert sum(d["counts"]) == d["count"]

    def test_all_mass_in_overflow_bucket(self):
        # every sample lands above the last bound: the bounded buckets
        # stay empty, every quantile degrades to the observed max, and
        # the snapshot still carries the full bucket structure
        h = Histogram("h", (1.0, 2.0))
        for v in (10.0, 20.0, 30.0):
            h.observe(v)
        d = h.to_dict()
        assert d["bounds"] == [1.0, 2.0]
        assert d["counts"] == [0, 0, 3]
        assert d["p50"] == 30.0
        assert d["p95"] == 30.0
        assert d["p99"] == 30.0
        assert d["min"] == 10.0
        assert d["max"] == 30.0
        assert h.quantile(0.0) == 30.0  # even q=0 resolves via overflow

    def test_to_dict_carries_percentile_summary(self):
        d = self._hist().to_dict()
        assert d["p50"] == 1.0
        assert d["p95"] == 5.0
        assert d["p99"] == 10.0
