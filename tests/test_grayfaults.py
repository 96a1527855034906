"""Tests for the gray-failure & overload resilience layer.

Covers the resilience primitives (circuit breaker state machine, retry
budgets, deadline contexts, hedge-delay tracking), the injector's
degraded-mode queries (slow NICs, lossy links, CPU steal), bounded
admission waits, end-to-end budget conservation over a browned-out
replay, and a hypothesis property that hedged remote reads never
double-commit a page no matter how the race resolves.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import params, sanitizers
from repro.cluster import Cluster
from repro.containers import ContainerRuntime, hello_world_image
from repro.core import MitosisDeployment
from repro.faults import (
    AdmissionShed,
    CpuSteal,
    DeadlineExceeded,
    FaultInjector,
    LossyLink,
    SlowNic,
)
from repro.fn import FnCluster, MitosisPolicy
from repro.kernel import Kernel, VmaKind
from repro.rdma import RdmaFabric, RpcRuntime
from repro.resilience import (
    CircuitBreaker,
    HedgeTracker,
    InvocationContext,
    RetryBudget,
)
from repro.sim import Environment
from repro.workloads import tc0_profile

SETTINGS = settings(max_examples=12, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def run(env, gen):
    return env.run(env.process(gen))


# --- Circuit breaker state machine -------------------------------------------------
class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=100.0):
        return CircuitBreaker("peer", failure_threshold=threshold,
                              cooldown=cooldown)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("x", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", cooldown=0.0)

    def test_starts_closed_and_allows(self):
        breaker = self.make()
        assert breaker.state_at(0.0) == "closed"
        for _ in range(10):
            assert breaker.allow(0.0)

    def test_threshold_consecutive_failures_open(self):
        breaker = self.make(threshold=3)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert breaker.state_at(2.0) == "closed"
        breaker.record_failure(3.0)
        assert breaker.state_at(3.0) == "open"
        assert not breaker.allow(3.0)
        assert breaker.transitions == [(3.0, "closed", "open")]

    def test_success_resets_the_failure_count(self):
        breaker = self.make(threshold=3)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        breaker.record_success(2.5)
        breaker.record_failure(3.0)
        breaker.record_failure(4.0)
        assert breaker.state_at(4.0) == "closed"

    def test_cooldown_elapse_is_half_open_lazily(self):
        breaker = self.make(threshold=1, cooldown=100.0)
        breaker.record_failure(10.0)
        assert breaker.state_at(10.0) == "open"
        assert breaker.state_at(109.9) == "open"
        # No event fired: the half-open state is derived from the clock.
        assert breaker.state_at(110.0) == "half-open"

    def test_half_open_admits_exactly_one_probe(self):
        breaker = self.make(threshold=1, cooldown=100.0)
        breaker.record_failure(0.0)
        assert breaker.allow(100.0)       # the probe
        assert not breaker.allow(100.0)   # concurrent caller: rejected
        assert not breaker.allow(150.0)   # still in flight

    def test_probe_success_closes(self):
        breaker = self.make(threshold=1, cooldown=100.0)
        breaker.record_failure(0.0)
        assert breaker.allow(100.0)
        breaker.record_success(105.0)
        assert breaker.state_at(105.0) == "closed"
        assert breaker.allow(105.0)
        assert breaker.transitions == [
            (0.0, "closed", "open"),
            (100.0, "open", "half-open"),
            (105.0, "half-open", "closed"),
        ]

    def test_probe_failure_reopens_for_another_cooldown(self):
        breaker = self.make(threshold=1, cooldown=100.0)
        breaker.record_failure(0.0)
        assert breaker.allow(100.0)
        breaker.record_failure(101.0)
        assert breaker.state_at(101.0) == "open"
        assert not breaker.allow(150.0)       # 101 + 100 not yet elapsed
        assert breaker.allow(201.0)           # next probe window

    def test_fast_failed_callers_do_not_recount(self):
        breaker = self.make(threshold=1, cooldown=100.0)
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)  # a fast-failed caller reporting back
        # The open window still starts at t=0, not t=1.
        assert breaker.state_at(100.0) == "half-open"

    def test_transition_log_passes_the_sanitizer(self):
        breaker = self.make(threshold=1, cooldown=100.0)
        breaker.record_failure(0.0)
        assert breaker.allow(100.0)
        breaker.record_failure(101.0)
        assert breaker.allow(201.0)
        breaker.record_success(202.0)
        assert sanitizers.audit_resilience(
            breakers=[breaker], now=202.0) == []

    def test_stuck_open_breaker_is_a_finding(self):
        breaker = self.make(threshold=1, cooldown=1e9)
        breaker.record_failure(0.0)
        findings = sanitizers.audit_resilience(breakers=[breaker], now=10.0)
        assert len(findings) == 1
        assert "still open" in findings[0]


# --- Retry budgets and invocation contexts -----------------------------------------
class TestRetryBudget:
    def test_spend_and_ledger(self):
        budget = RetryBudget(3)
        assert budget.try_spend(1, label="a")
        assert budget.try_spend(2, label="b")
        assert budget.remaining == 0
        assert budget.ledger == [("a", 1), ("b", 2)]

    def test_exhaustion_refuses_without_debit(self):
        budget = RetryBudget(1)
        assert budget.try_spend(1)
        assert not budget.try_spend(1)
        assert budget.spent == 1
        assert len(budget.ledger) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(-1)
        with pytest.raises(ValueError):
            RetryBudget(2).try_spend(-1)

    def test_conservation_audit_catches_off_books_spend(self):
        ctx = InvocationContext(0.0, retry_budget=RetryBudget(4))
        ctx.retry_budget.try_spend(1)
        assert sanitizers.audit_resilience(contexts=[ctx]) == []
        ctx.retry_budget.spent = 3  # a retry taken off the books
        findings = sanitizers.audit_resilience(contexts=[ctx])
        assert len(findings) == 1
        assert "off the books" in findings[0]

    def test_conservation_audit_catches_overdraft(self):
        ctx = InvocationContext(0.0, retry_budget=RetryBudget(1))
        ctx.retry_budget.try_spend(1)
        ctx.retry_budget.spent = 2
        ctx.retry_budget.ledger.append(("forged", 1))
        findings = sanitizers.audit_resilience(contexts=[ctx])
        assert len(findings) == 1
        assert "overdraft" in findings[0]

    def test_context_deadline_semantics(self):
        ctx = InvocationContext(0.0, deadline_at=100.0)
        assert ctx.remaining(40.0) == 60.0
        assert not ctx.expired(100.0)
        assert ctx.expired(100.1)
        open_ended = InvocationContext(0.0)
        assert open_ended.remaining(1e12) == float("inf")
        assert not open_ended.expired(1e12)


class TestHedgeTracker:
    def test_initial_delay_until_enough_samples(self):
        tracker = HedgeTracker(initial_delay=params.HEDGE_INITIAL_DELAY,
                               min_samples=4)
        for latency in (1.0, 2.0, 3.0):
            tracker.record(latency)
        assert tracker.delay() == params.HEDGE_INITIAL_DELAY
        tracker.record(4.0)
        assert tracker.delay() == pytest.approx(4.0, rel=0.05)

    def test_window_slides(self):
        tracker = HedgeTracker(min_samples=2, window=4)
        for latency in (100.0, 100.0, 100.0, 100.0, 1.0, 1.0, 1.0, 1.0):
            tracker.record(latency)
        assert len(tracker) == 4
        assert tracker.delay() == pytest.approx(1.0)


# --- Degraded-mode injector queries ------------------------------------------------
class TestDegradedQueries:
    @pytest.fixture
    def injector(self):
        env = Environment()
        cluster = Cluster(env, num_machines=4, num_racks=1)
        fabric = RdmaFabric(env, cluster)
        return FaultInjector(env, cluster).install(fabric)

    def test_healthy_identities(self, injector):
        assert not injector.any_degraded
        assert injector.nic_slowdown(0) == 1.0
        assert injector.path_slowdown(0, 1) == 1.0
        assert injector.link_drop_rate(0, 1) == 0.0
        assert injector.cpu_slowdown(0) == 1.0

    def test_slow_nic_nests_multiplicatively(self, injector):
        injector.slow_nic(0, 3.0)
        injector.slow_nic(0, 2.0)
        assert injector.nic_slowdown(0) == 6.0
        # The slower endpoint dominates the path.
        assert injector.path_slowdown(0, 1) == 6.0
        assert injector.path_slowdown(1, 0) == 6.0
        injector.restore_nic_speed(0, 3.0)
        assert injector.nic_slowdown(0) == 2.0
        injector.restore_nic_speed(0, 2.0)
        assert not injector.any_degraded

    def test_lossy_links_combine_independently(self, injector):
        h1 = injector.make_link_lossy(0, 1, 0.5, extra_latency=2.0)
        h2 = injector.make_link_lossy(1, 0, 0.5, extra_latency=3.0)
        assert injector.link_drop_rate(0, 1) == pytest.approx(0.75)
        assert injector.link_drop_rate(1, 0) == pytest.approx(0.75)
        assert injector.link_extra_latency(0, 1) == pytest.approx(5.0)
        assert injector.link_drop_rate(0, 2) == 0.0
        injector.restore_link_quality(h1)
        injector.restore_link_quality(h2)
        assert not injector.any_degraded

    def test_cpu_steal_restore_roundtrip(self, injector):
        injector.steal_cpu(2, 4.0)
        assert injector.cpu_slowdown(2) == 4.0
        assert injector.any_degraded
        injector.restore_cpu(2, 4.0)
        assert injector.cpu_slowdown(2) == 1.0
        assert not injector.any_degraded

    def test_schedule_events_validate(self):
        with pytest.raises(ValueError):
            SlowNic(0.0, 0, factor=0.5, down_for=1.0)
        with pytest.raises(ValueError):
            SlowNic(0.0, 0, factor=2.0, down_for=None)
        with pytest.raises(ValueError):
            LossyLink(0.0, 1, 1, drop_rate=0.1, down_for=1.0)
        with pytest.raises(ValueError):
            LossyLink(0.0, 0, 1, drop_rate=1.0, down_for=1.0)
        with pytest.raises(ValueError):
            CpuSteal(0.0, 0, factor=1.0, down_for=1.0)


# --- Bounded admission waits -------------------------------------------------------
def make_resilient_cluster(**kwargs):
    defaults = dict(num_invokers=2, num_machines=5, num_dfs_osds=2, seed=1)
    defaults.update(kwargs)
    fn = FnCluster(MitosisPolicy(), **defaults)
    fn.enable_faults()
    fn.enable_resilience()
    return fn


class TestBoundedAdmission:
    def saturate(self, invoker):
        """Take every admission slot so later waiters queue."""
        grants = [invoker.admission.acquire()
                  for _ in range(invoker.admission.capacity)]
        assert all(g.triggered for g in grants)
        return grants

    def test_reroute_broadcast_sheds_queued_request(self):
        fn = make_resilient_cluster()
        invoker = fn.invokers[0]
        self.saturate(invoker)
        ctx = InvocationContext(0.0, deadline_at=1e12)

        def waiter():
            yield from fn._admit_bounded(invoker, ctx)

        proc = fn.env.process(waiter())

        def opener():
            yield fn.env.timeout(10.0)
            invoker.reroute.open()

        fn.env.process(opener())
        with pytest.raises(AdmissionShed):
            fn.env.run(proc)
        assert fn.env.now == pytest.approx(10.0)
        # The queued spot was given back, not leaked.
        assert invoker.admission.queued == 0

    def test_deadline_sheds_queued_request(self):
        fn = make_resilient_cluster()
        invoker = fn.invokers[0]
        self.saturate(invoker)
        ctx = InvocationContext(0.0, deadline_at=25.0)

        def waiter():
            yield from fn._admit_bounded(invoker, ctx)

        with pytest.raises(DeadlineExceeded):
            fn.env.run(fn.env.process(waiter()))
        assert fn.env.now == pytest.approx(25.0)
        assert invoker.admission.queued == 0

    def test_grant_before_either_bound_admits(self):
        fn = make_resilient_cluster()
        invoker = fn.invokers[0]
        grants = self.saturate(invoker)
        ctx = InvocationContext(0.0, deadline_at=100.0)

        def waiter():
            yield from fn._admit_bounded(invoker, ctx)
            return fn.env.now

        def releaser():
            yield fn.env.timeout(5.0)
            grants.pop()
            invoker.admission.release()

        fn.env.process(releaser())
        admitted_at = fn.env.run(fn.env.process(waiter()))
        assert admitted_at == pytest.approx(5.0)
        # No reroute waiter left behind on the broadcast gate.
        assert invoker.reroute._waiters == []


# --- End-to-end brownout conservation ----------------------------------------------
class TestBrownoutEndToEnd:
    def test_budgets_conserve_and_rig_audits_clean(self):
        fn = make_resilient_cluster()
        profile = tc0_profile()

        def body():
            yield from fn.register(profile)
            seed_invoker, _, _ = fn.policy.seeds[profile.name]
            machine_id = seed_invoker.machine.machine_id
            fn.faults.apply([
                SlowNic(0.0, machine_id, factor=400.0,
                        down_for=3 * params.SEC),
                CpuSteal(0.0, machine_id, factor=6.0,
                         down_for=3 * params.SEC),
            ])
            records = []
            for _ in range(40):
                records.append((yield from fn.invoke("TC0")))
                yield fn.env.timeout(params.FN_INVOCATION_DEADLINE / 20.0)
            return records

        records = run(fn.env, body())
        fn.stop_fault_daemons()
        assert len(records) == 40
        assert all(r.outcome in ("ok", "recovered", "shed")
                   for r in records)
        # One context was minted per invocation and every budget balances.
        assert len(fn.contexts) == 40
        assert sanitizers.audit_rig(fn) == []
        for ctx in fn.contexts:
            assert ctx.retry_budget.spent <= ctx.retry_budget.granted

    def test_shed_records_stay_out_of_latency_percentiles(self):
        fn = make_resilient_cluster()
        profile = tc0_profile()

        def body():
            yield from fn.register(profile)
            seed_invoker, _, _ = fn.policy.seeds[profile.name]
            # An extreme brownout: every admitted start outlives the
            # deadline, so everything queued behind the 2x8 admission
            # slots must shed rather than run late.
            fn.faults.apply([SlowNic(0.0, seed_invoker.machine.machine_id,
                                     factor=1e5, down_for=600 * params.SEC)])
            procs = [fn.submit("TC0") for _ in range(40)]
            records = []
            for proc in procs:
                records.append((yield proc))
            return records

        records = run(fn.env, body())
        fn.stop_fault_daemons()
        shed = [r for r in records if r.outcome == "shed"]
        assert shed, "expected deadline sheds under an extreme brownout"
        assert fn.counters["deadline_shed"] >= len(shed)
        for record in shed:
            # Zero-width start/finish stamp: a shed invocation never ran.
            assert record.started_at == record.finished_at
            assert record.execution_latency == 0.0
            assert record.invoker_index == -1
            assert record.start_kind == "none"


# --- Hedged reads never double-commit ----------------------------------------------
def build_mitosis_rig(seed=0):
    env = Environment()
    cluster = Cluster(env, num_machines=3, num_racks=1)
    fabric = RdmaFabric(env, cluster)
    rpc = RpcRuntime(env, fabric)
    kernels = [Kernel(env, m) for m in cluster]
    runtimes = [ContainerRuntime(env, k) for k in kernels]
    deployment = MitosisDeployment(env, cluster, fabric, rpc, runtimes,
                                   enable_sharing=True, transport="dct")
    return env, cluster, kernels, runtimes, deployment


class TestHedgedReadsProperty:
    @SETTINGS
    @given(delay_us=st.floats(min_value=0.05, max_value=8.0),
           num_pages=st.integers(min_value=1, max_value=6),
           num_children=st.integers(min_value=1, max_value=3))
    def test_never_double_commits_a_page(self, delay_us, num_pages,
                                         num_children):
        """Whatever the hedge race outcome, each fault commits one frame.

        A tiny hedge delay forces the clone to fire on (almost) every
        read; concurrent children faulting the same pages add coalescing
        and shared-cache COW races on top.  The PTE-install guard must
        keep every (task, vpn) at exactly one mapped frame, and the
        refcount sanitizer must stay clean.
        """
        env, cluster, kernels, runtimes, deployment = build_mitosis_rig()
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        # Constant tiny delay: min_samples never reached, so every read
        # uses `delay_us` and the clone path actually exercises.
        node1.pager.enable_resilience()
        node1.pager.resilience.hedge = HedgeTracker(
            initial_delay=delay_us, min_samples=10 ** 9)

        def body():
            parent = yield from runtimes[0].cold_start(hello_world_image())
            meta = yield from node0.fork_prepare(parent)
            children = []
            for _ in range(num_children):
                children.append((yield from node1.fork_resume(meta)))
            heap = next(v for v in parent.task.address_space.vmas
                        if v.kind == VmaKind.HEAP)
            procs = []
            for child in children:
                for page in range(num_pages):
                    procs.append(env.process(kernels[1].touch(
                        child.task, heap.start_vpn + page)))
            for proc in procs:
                yield proc
            return children, heap

        children, heap = env.run(env.process(body()))

        for child in children:
            table = child.task.address_space.page_table
            for page in range(num_pages):
                pte = table.entry(heap.start_vpn + page)
                assert pte.present
                assert pte.frame is not None and pte.frame.live
        assert sanitizers.audit_frame_refcounts(kernels) == []
        counters = node1.pager.counters
        assert (counters["hedges_issued"]
                == counters["hedges_won"] + counters["hedges_wasted"])

    def test_hedge_win_still_single_commit(self):
        """Force the clone to win: the primary is interrupted, the clone's
        completion installs the page once, and the counters agree."""
        env, cluster, kernels, runtimes, deployment = build_mitosis_rig()
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        node1.pager.enable_resilience()
        node1.pager.resilience.hedge = HedgeTracker(
            initial_delay=0.01, min_samples=10 ** 9)

        real_dcqp = node1.pager.net_daemon.dcqp
        state = {"armed": False, "stalled": False}

        class _Stall:
            def read_batch(self, *args, **kwargs):
                yield env.timeout(10 * params.SEC)
                return params.PAGE_SIZE

        def stalling_dcqp():
            if state["armed"] and not state["stalled"]:
                # First leg after arming (the primary) gets a QP whose
                # read stalls far past the clone's completion.
                state["stalled"] = True
                return _Stall()
            return real_dcqp()

        node1.pager.net_daemon.dcqp = stalling_dcqp

        def body():
            parent = yield from runtimes[0].cold_start(hello_world_image())
            meta = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta)
            state["armed"] = True
            heap = next(v for v in parent.task.address_space.vmas
                        if v.kind == VmaKind.HEAP)
            yield from kernels[1].touch(child.task, heap.start_vpn)
            return child, heap

        child, heap = env.run(env.process(body()))
        pte = child.task.address_space.page_table.entry(heap.start_vpn)
        assert pte.present
        assert node1.pager.counters["hedges_won"] == 1
        assert node1.pager.counters["hedges_wasted"] == 0
        assert sanitizers.audit_frame_refcounts(kernels) == []
