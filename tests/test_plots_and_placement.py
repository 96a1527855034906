"""Tests for the terminal plots and seed-placement strategies."""

import pytest

from repro.experiments import plots
from repro.fn import FnCluster, MitosisPolicy
from repro.workloads import tc0_profile


class TestSparkline:
    def test_length_capped_at_width(self):
        line = plots.sparkline(range(1000), width=40)
        assert len(line) == 40

    def test_short_input_kept(self):
        assert len(plots.sparkline([1, 2, 3], width=40)) == 3

    def test_flat_series_renders_baseline(self):
        assert plots.sparkline([5, 5, 5]) == "▁▁▁"

    def test_monotone_series_monotone_blocks(self):
        line = plots.sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"

    def test_empty(self):
        assert plots.sparkline([]) == ""


class TestBarChart:
    def test_scales_to_peak(self):
        chart = plots.bar_chart([("a", 10.0), ("b", 5.0)], width=10)
        lines = chart.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_empty(self):
        assert plots.bar_chart([]) == ""


class TestCdfGrid:
    def test_renders_axes_and_legend(self):
        curves = {"mitosis": [(1.0, 0.5), (2.0, 1.0)],
                  "fn": [(5.0, 0.5), (10.0, 1.0)]}
        grid = plots.cdf_grid(curves, width=20, height=6)
        assert "1.0 |" in grid
        assert "0.0 |" in grid
        assert "mitosis" in grid and "fn" in grid

    def test_empty(self):
        assert plots.cdf_grid({}) == ""


class TestSeedPlacement:
    def _cluster(self, placement):
        return FnCluster(MitosisPolicy(placement=placement),
                         num_invokers=4, num_machines=7, num_dfs_osds=2,
                         seed=9)

    def _register_many(self, fn, count=4):
        from repro.containers import ContainerImage, MemoryLayout
        from repro.kernel import VmaKind
        from repro.workloads import FunctionProfile

        def profile(i):
            layout = MemoryLayout(20, 100, 20, 50)
            image = ContainerImage("f%d" % i, layout, 4 * 1024 * 1024,
                                   100000.0)
            return FunctionProfile("f%d" % i, image, 1000.0,
                                   {VmaKind.CODE: 0.5})

        def body():
            for i in range(count):
                yield from fn.register(profile(i))

        fn.env.run(fn.env.process(body()))

    def test_least_memory_avoids_loaded_invoker(self):
        fn = self._cluster("least-memory")
        self._register_many(fn, count=2)
        first = fn.policy.seeds["f0"][0].index
        second = fn.policy.seeds["f1"][0].index
        assert first != second

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            MitosisPolicy(placement="astrology")
