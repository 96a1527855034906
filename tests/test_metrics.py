"""Tests for the metrics collectors and statistics helpers."""

import pytest

from repro.metrics import CounterSet, TimeSeries, mean, percentile


class TestTimeSeries:
    def test_value_at_steps(self):
        series = TimeSeries()
        series.sample(0.0, 10)
        series.sample(5.0, 20)
        series.sample(9.0, 30)
        assert series.value_at(0.0) == 10
        assert series.value_at(4.9) == 10
        assert series.value_at(5.0) == 20
        assert series.value_at(100.0) == 30

    def test_value_before_first_sample_raises(self):
        series = TimeSeries()
        series.sample(5.0, 1)
        with pytest.raises(ValueError):
            series.value_at(4.0)

    def test_max_and_lengths(self):
        series = TimeSeries()
        series.sample(0.0, 3)
        series.sample(1.0, 7)
        assert series.max() == 7
        assert len(series) == 2
        assert series.times() == [0.0, 1.0]
        assert series.values() == [3, 7]


class TestCounterSet:
    def test_incr_and_read(self):
        counters = CounterSet()
        counters.incr("a")
        counters.incr("a", 4)
        assert counters["a"] == 5
        assert counters["missing"] == 0

    def test_as_dict_and_reset(self):
        counters = CounterSet()
        counters.incr("x")
        assert counters.as_dict() == {"x": 1}
        counters.reset()
        assert counters.as_dict() == {}


class TestStatsFunctions:
    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_percentile_single_value(self):
        assert percentile([7.0], 50) == 7.0

