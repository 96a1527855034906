"""Unit tests for function profiles, execution, and trace generation."""

import pytest

from repro import params
from repro.cluster import Cluster
from repro.containers import ContainerRuntime
from repro.kernel import Kernel, VmaKind
from repro.sim import Environment, SeededStreams
from repro.workloads import (
    FunctionProfile,
    execute,
    func_660323,
    func_9a3e4e,
    functionbench,
    tc0_profile,
    tc1_profile,
)


@pytest.fixture
def rig():
    env = Environment()
    cluster = Cluster(env, num_machines=1)
    kernel = Kernel(env, cluster.machine(0))
    runtime = ContainerRuntime(env, kernel)
    return env, kernel, runtime


def run(env, gen):
    return env.run(env.process(gen))


class TestProfiles:
    def test_tc0_is_small_and_fast(self):
        profile = tc0_profile()
        assert profile.compute_us == params.MS
        assert profile.image.name == "tc0-hello-world"

    def test_tc1_touches_more_than_tc0(self, rig):
        env, kernel, runtime = rig
        tc0, tc1 = tc0_profile(), tc1_profile()

        def count(profile):
            container = yield from runtime.cold_start(profile.image)
            return profile.touched_pages(container.task.address_space)

        n0 = run(env, count(tc0))
        n1 = run(env, count(tc1))
        assert n1 > 3 * n0

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            FunctionProfile("x", tc0_profile().image, 1000.0,
                            {VmaKind.CODE: 1.5})

    def test_plan_is_deterministic(self, rig):
        env, kernel, runtime = rig
        profile = tc0_profile()

        def body():
            container = yield from runtime.cold_start(profile.image)
            return (profile.planned_touches(container.task.address_space),
                    profile.planned_touches(container.task.address_space))

        first, second = run(env, body())
        assert first == second
        assert len(first) > 0

    def test_plan_is_built_once_per_layout(self, rig):
        """One plan per VMA layout: containers of one image share it, and
        a heap grown by ``new_heap_pages`` gets its own."""
        env, kernel, runtime = rig
        profile = tc0_profile()

        def body():
            first = yield from runtime.cold_start(profile.image)
            second = yield from runtime.cold_start(profile.image)
            plan = profile.planned_touches(first.task.address_space)
            shared = profile.planned_touches(second.task.address_space)
            yield from execute(env, first, profile)
            return first, second, plan, shared

        first, second, plan, shared = run(env, body())
        assert type(plan) is tuple and shared is plan
        unchanged = profile.planned_touches(second.task.address_space)
        assert unchanged is plan
        assert unchanged == tc0_profile().planned_touches(
            second.task.address_space)
        grown = profile.planned_touches(first.task.address_space)
        assert grown is not plan
        assert grown == tc0_profile().planned_touches(first.task.address_space)

    def test_writes_only_in_writable_regions(self, rig):
        env, kernel, runtime = rig
        profile = tc0_profile()

        def body():
            container = yield from runtime.cold_start(profile.image)
            return container, profile.planned_touches(
                container.task.address_space)

        container, plan = run(env, body())
        space = container.task.address_space
        for vpn, write in plan:
            if write:
                assert space.find_vma(vpn).writable


class TestExecution:
    def test_warm_execution_is_fast(self, rig):
        env, kernel, runtime = rig
        profile = tc0_profile()

        def body():
            container = yield from runtime.cold_start(profile.image)
            result = yield from execute(env, container, profile)
            return result

        result = run(env, body())
        # All pages resident: latency ~= compute time + new-page faults.
        assert result.latency < 2 * profile.compute_us
        assert result.pages_touched > 0

    def test_execution_grows_heap(self, rig):
        env, kernel, runtime = rig
        profile = tc0_profile()

        def body():
            container = yield from runtime.cold_start(profile.image)
            pages_before = container.task.address_space.total_pages
            yield from execute(env, container, profile)
            return pages_before, container.task.address_space.total_pages

        before, after = run(env, body())
        assert after == before + profile.new_heap_pages

    def test_chameleon_touch_count_near_2303(self, rig):
        env, kernel, runtime = rig
        profile = functionbench.chameleon()

        def body():
            container = yield from runtime.cold_start(profile.image)
            return profile.touched_pages(container.task.address_space)

        touched = run(env, body())
        assert abs(touched - 2303) < 120  # §6.4: 2,303 pages

    def test_functionbench_suite_has_named_apps(self):
        names = {p.name for p in functionbench.suite()}
        assert "chameleon" in names
        assert len(names) >= 6


class TestAzureTraces:
    def test_spike_ratio_matches_claim(self):
        trace = func_660323()
        # §2.2: invocation frequencies fluctuate up to 33,000x in a minute.
        assert trace.peak_ratio() >= 33000

    def test_machines_required_match_figure1(self):
        assert max(func_660323().machines_required()) == 31
        assert max(func_9a3e4e().machines_required()) == 10

    def test_arrivals_sorted_and_scaled(self):
        trace = func_660323()
        streams = SeededStreams(seed=1)
        arrivals = trace.arrival_times(streams, scale=0.001)
        assert arrivals == sorted(arrivals)
        expected = sum(int(round(c * 0.001)) for c in trace.minute_counts)
        assert len(arrivals) == expected

    def test_arrivals_deterministic_per_seed(self):
        trace = func_9a3e4e()
        a = trace.arrival_times(SeededStreams(7), scale=0.01)
        b = trace.arrival_times(SeededStreams(7), scale=0.01)
        assert a == b

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            func_660323().arrival_times(SeededStreams(0), scale=0)

    def test_empty_trace_rejected(self):
        from repro.workloads import SpikeTrace
        with pytest.raises(ValueError):
            SpikeTrace("empty", [], exec_time_us=1000)
