"""Tests for the live metrics layer (repro.observe.metrics).

The load-bearing property is the LogHistogram accuracy contract: every
extracted quantile is within relative error ``sqrt(growth) - 1`` of the
true nearest-rank percentile, pinned here against ``numpy.percentile``
over hypothesis-generated samples.  Merge must be associative and
commutative (per-worker histograms roll up losslessly), and the registry
must enforce layout identity.  Edge cases -- empty, single-sample, zero
and sub-``min_value`` samples -- are covered explicitly because the
quantile walk special-cases all three.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observe.metrics import (
    Counter,
    DEFAULT_GROWTH,
    Gauge,
    LogHistogram,
    MetricsRegistry,
    WindowedSeries,
    exact_percentiles,
)

#: The documented accuracy bound for the default layout, with a hair of
#: float headroom.
REL_ERR = math.sqrt(DEFAULT_GROWTH) - 1 + 1e-9

samples = st.lists(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=400,
)


def nearest_rank(values, q):
    """True nearest-rank percentile (the quantity the histogram bounds)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class TestLogHistogram:
    @given(samples)
    @settings(max_examples=200)
    def test_quantiles_within_documented_relative_error(self, values):
        hist = LogHistogram()
        hist.record_many(values)
        for q in (50, 95, 99):
            got = hist.quantile(q)
            truth = nearest_rank(values, q)
            assert got is not None
            if truth == 0:
                assert got == 0
            else:
                assert abs(got - truth) / truth <= REL_ERR, (
                    f"p{q}: {got} vs true {truth}"
                )

    @given(samples)
    @settings(max_examples=100)
    def test_quantiles_clamped_to_observed_range(self, values):
        hist = LogHistogram()
        hist.record_many(values)
        for q in (0, 50, 100):
            got = hist.quantile(q)
            assert min(values) <= got <= max(values)

    @given(samples, samples, samples)
    @settings(max_examples=100)
    def test_merge_associative_and_commutative(self, a, b, c):
        def hist(values):
            h = LogHistogram()
            h.record_many(values)
            return h

        left = hist(a)
        left.merge(hist(b))
        left.merge(hist(c))

        bc = hist(b)
        bc.merge(hist(c))
        right = hist(a)
        right.merge(bc)

        swapped = hist(c)
        swapped.merge(hist(b))
        swapped.merge(hist(a))

        for other in (right, swapped):
            assert left.buckets == other.buckets
            assert left.count == other.count
            assert left.zero_count == other.zero_count
            assert left.min == other.min and left.max == other.max
            assert left.total == pytest.approx(other.total)

    @given(samples, samples)
    @settings(max_examples=100)
    def test_merge_equals_recording_concatenation(self, a, b):
        merged = LogHistogram()
        merged.record_many(a)
        other = LogHistogram()
        other.record_many(b)
        merged.merge(other)

        direct = LogHistogram()
        direct.record_many(a + b)
        assert merged.buckets == direct.buckets
        assert merged.count == direct.count
        for q in (50, 95, 99):
            assert merged.quantile(q) == direct.quantile(q)

    def test_empty_histogram(self):
        hist = LogHistogram()
        assert hist.count == 0
        assert hist.mean is None
        assert hist.quantile(99) is None
        assert hist.percentiles() == {"p50": None, "p95": None, "p99": None}
        assert hist.to_dict() == {"count": 0}

    def test_single_sample_is_every_quantile(self):
        hist = LogHistogram()
        hist.record(42.0)
        for q in (0, 50, 99, 100):
            assert hist.quantile(q) == pytest.approx(42.0, rel=REL_ERR)
        assert hist.mean == 42.0
        assert hist.min == hist.max == 42.0

    def test_zero_and_negative_samples_counted_as_smallest(self):
        hist = LogHistogram()
        hist.record_many([0.0, -1.0, 10.0, 10.0])
        assert hist.count == 4
        assert hist.zero_count == 2
        # p50 rank lands in the underflow bucket -> clamped to >= 0
        assert hist.quantile(50) == 0.0
        assert hist.quantile(100) == pytest.approx(10.0, rel=REL_ERR)

    def test_below_min_value_clamps_into_bucket_zero(self):
        hist = LogHistogram(min_value=1.0)
        hist.record(1e-6)
        assert hist.buckets == {0: 1}
        assert hist.quantile(50) == pytest.approx(1e-6)  # clamped to observed min

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            LogHistogram(growth=1.0)
        with pytest.raises(ValueError):
            LogHistogram(min_value=0.0)
        a, b = LogHistogram(growth=2.0), LogHistogram(growth=4.0)
        with pytest.raises(ValueError, match="layout"):
            a.merge(b)

    def test_quantile_rejects_out_of_range_rank(self):
        hist = LogHistogram()
        hist.record(1.0)
        with pytest.raises(ValueError):
            hist.quantile(101)


class TestExactPercentiles:
    @given(samples)
    @settings(max_examples=100)
    def test_matches_numpy(self, values):
        pcts = exact_percentiles(values)
        for q in (50, 95, 99):
            assert pcts[f"p{q}"] == float(np.percentile(values, q))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            exact_percentiles([])

    def test_single_sample(self):
        assert exact_percentiles([7.0]) == {"p50": 7.0, "p95": 7.0, "p99": 7.0}


class TestCounterGauge:
    def test_counter_monotone(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_merge_keeps_latest_writer(self):
        a, b = Gauge(), Gauge()
        a.set(1.0)
        b.set(2.0)
        b.set(3.0)
        a.merge(b)
        assert a.value == 3.0
        stale = Gauge()
        stale.set(99.0)
        # a has 1 own write + b's 2; a single-write gauge must not override
        a.merge(stale)
        assert a.value == 3.0


class TestWindowedSeries:
    def test_points_aggregate_per_window(self):
        s = WindowedSeries(window_s=1.0)
        s.record(0.1, 10.0)
        s.record(0.9, 30.0)
        s.record(2.5, 5.0)
        points = s.points()
        assert [p["t"] for p in points] == [0.0, 2.0]
        assert points[0] == {
            "t": 0.0, "count": 2.0, "sum": 40.0, "min": 10.0, "max": 30.0,
            "mean": 20.0, "rate": 40.0,
        }

    def test_merge_adds_windows(self):
        a, b = WindowedSeries(1.0), WindowedSeries(1.0)
        a.record(0.5, 1.0)
        b.record(0.6, 3.0)
        b.record(5.0, 7.0)
        a.merge(b)
        assert [p["sum"] for p in a.points()] == [4.0, 7.0]
        with pytest.raises(ValueError):
            a.merge(WindowedSeries(2.0))


class TestMetricsRegistry:
    def test_get_or_create_and_to_dict(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        assert reg.counter("a").value == 2  # same instance returned
        reg.gauge("g").set(5)
        reg.histogram("h").record(1.5)
        reg.windowed("w").record(0.2, 1.0)
        snap = reg.to_dict()
        assert snap["counters"]["a"] == {"value": 2}
        assert snap["gauges"]["g"] == {"value": 5.0}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["series"]["w"]["points"][0]["count"] == 1.0

    def test_layout_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", min_value=1.0)
        with pytest.raises(ValueError, match="layout"):
            reg.histogram("h", min_value=2.0)
        reg.windowed("w", window_s=1.0)
        with pytest.raises(ValueError, match="window_s"):
            reg.windowed("w", window_s=2.0)

    def test_merge_rolls_up_every_kind(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.counter("only_b").inc(4)
        a.histogram("h").record(1.0)
        b.histogram("h").record(100.0)
        b.gauge("g").set(9)
        a.merge(b)
        assert a.counter("c").value == 3
        assert a.counter("only_b").value == 4
        assert a.histogram("h").count == 2
        assert a.gauge("g").value == 9
