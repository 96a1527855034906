"""Tests for the metrics collectors and statistics helpers."""

import ast
import os

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

    def test_hot_paths_count_by_item(self):
        counters = CounterSet()
        counters["hits"] += 1
        counters.incr("hits", 2)
        assert counters["hits"] == 3

    def test_as_dict_is_a_detached_plain_dict(self):
        counters = CounterSet()
        counters.incr("x")
        snapshot = counters.as_dict()
        assert type(snapshot) is dict
        counters.incr("x")
        snapshot["y"] = 5
        assert snapshot == {"x": 1, "y": 5}
        assert counters.as_dict() == {"x": 2}

    def test_no_caller_tests_a_counter_sets_truth_value(self):
        """An empty CounterSet is falsy, as any dict is: no condition in
        the program may test a ``counters`` attribute or name by truth
        value (``is None`` is the test for "not armed")."""
        root = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src", "repro")
        found = []
        for directory, _, files in os.walk(root):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), path)
                for node in ast.walk(tree):
                    tests = []
                    if isinstance(node, (ast.If, ast.While, ast.IfExp,
                                         ast.Assert)):
                        tests.append(node.test)
                    elif isinstance(node, ast.BoolOp):
                        tests.extend(node.values)
                    elif (isinstance(node, ast.UnaryOp)
                          and isinstance(node.op, ast.Not)):
                        tests.append(node.operand)
                    for test in tests:
                        leaf = (test.attr if isinstance(test, ast.Attribute)
                                else getattr(test, "id", None))
                        if leaf is not None and leaf.endswith("counters"):
                            found.append("%s:%d" % (path, node.lineno))
        assert found == []


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

