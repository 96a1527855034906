"""Tests for the fault-injection subsystem and every recovery path.

Covers the fault taxonomy end to end: schedule validation, injector state,
deterministic datagram loss, RPC deadlines/retries/backoff, worker-pool
saturation, QP error states, dead-vs-revoked disambiguation, descriptor
leases, invoker crash re-admission, and a hypothesis property test that
any bounded fault schedule leaves the event loop drainable with every
invocation completed or failed loudly.
"""

import pytest

from repro import params
from repro.cluster import Cluster
from repro.containers import ContainerRuntime, hello_world_image
from repro.core import MitosisDeployment
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    LeaseExpired,
    LinkCut,
    MachineCrash,
    NicFlap,
    ParentUnreachable,
    UdDropStorm,
)
from repro.fn import FnCluster, MitosisPolicy
from repro.kernel import Kernel
from repro.rdma import (
    ConnectionError_,
    RdmaFabric,
    RemoteAccessError,
    RpcError,
    RpcRuntime,
    RpcTimeout,
)
from repro.rdma.qp import DcQp
from repro.sim import Environment, Interrupt, Resource, SeededStreams, Store
from repro.workloads import tc0_profile


def run(env, gen):
    return env.run(env.process(gen))


@pytest.fixture
def rig():
    env = Environment()
    cluster = Cluster(env, num_machines=4, num_racks=1)
    fabric = RdmaFabric(env, cluster)
    injector = FaultInjector(env, cluster).install(fabric)
    return env, cluster, fabric, injector


# --- Schedule validation -----------------------------------------------------------
class TestSchedule:
    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            MachineCrash(-1.0, 0)

    def test_flap_requires_duration(self):
        with pytest.raises(TypeError):
            NicFlap(0.0, 0)

    def test_link_cut_needs_two_machines(self):
        with pytest.raises(ValueError):
            LinkCut(0.0, 2, 2, down_for=1.0)

    def test_storm_rate_bounded(self):
        with pytest.raises(ValueError):
            UdDropStorm(0.0, rate=1.5, down_for=1.0)

    def test_horizon_and_recovery(self):
        sched = FaultSchedule([
            MachineCrash(1.0, 0, down_for=5.0),
            NicFlap(2.0, 1, down_for=1.0),
        ])
        assert sched.horizon == pytest.approx(6.0)
        assert sched.eventually_recovers
        forever = FaultSchedule([MachineCrash(0.0, 0)])
        assert not forever.eventually_recovers


# --- Injector state machine --------------------------------------------------------
class TestInjector:
    def test_crash_is_idempotent_and_restart_balances(self, rig):
        env, cluster, fabric, injector = rig
        assert injector.crash_machine(1)
        assert not injector.crash_machine(1)
        assert not injector.machine_up(1)
        assert not injector.path_up(0, 1)
        assert injector.restart_machine(1)
        assert not injector.restart_machine(1)
        assert injector.machine_up(1)

    def test_nic_flaps_nest(self, rig):
        env, cluster, fabric, injector = rig
        injector.nic_down(2)
        injector.nic_down(2)
        injector.nic_restore(2)
        assert not injector.nic_up(2)
        injector.nic_restore(2)
        assert injector.nic_up(2)

    def test_link_cut_is_symmetric(self, rig):
        env, cluster, fabric, injector = rig
        injector.cut_link(0, 3)
        assert not injector.path_up(3, 0)
        assert injector.path_up(0, 1)
        injector.restore_link(3, 0)
        assert injector.path_up(0, 3)

    def test_crash_interrupts_hosted_processes(self, rig):
        env, cluster, fabric, injector = rig
        seen = []

        def victim():
            try:
                yield env.timeout(100.0)
            except Interrupt as exc:
                seen.append(exc.cause)

        proc = env.process(victim())
        injector.host_process(1, proc)

        def driver():
            yield env.timeout(1.0)
            injector.crash_machine(1)

        env.process(driver())
        env.run()
        assert len(seen) == 1 and seen[0].machine_id == 1

    def test_crash_interrupts_in_hosting_order(self, rig):
        # Hosted in the reverse of creation order, so neither creation
        # order nor object addresses can stand in for hosting order.
        env, cluster, fabric, injector = rig
        seen = []

        def victim(tag):
            try:
                yield env.timeout(100.0)
            except Interrupt:
                seen.append(tag)

        procs = [env.process(victim(tag)) for tag in range(24)]
        for tag in reversed(range(24)):
            injector.host_process(1, procs[tag])

        def driver():
            yield env.timeout(1.0)
            injector.crash_machine(1)

        env.process(driver())
        env.run()
        assert seen == list(reversed(range(24)))

    def test_ud_drops_are_deterministic(self):
        def outcomes(seed):
            env = Environment()
            cluster = Cluster(env, num_machines=2, num_racks=1)
            fabric = RdmaFabric(env, cluster)
            inj = FaultInjector(env, cluster,
                                streams=SeededStreams(seed)).install(fabric)
            inj.start_storm(0.5)
            return [inj.ud_delivered(0, 1) for _ in range(50)]

        assert outcomes(7) == outcomes(7)
        assert outcomes(7) != outcomes(8)

    def test_schedule_driver_injects_and_heals(self, rig):
        env, cluster, fabric, injector = rig
        injector.apply([NicFlap(5.0, 1, down_for=10.0)])

        def probe():
            yield env.timeout(6.0)
            mid = injector.nic_up(1)
            yield env.timeout(10.0)
            return mid, injector.nic_up(1)

        mid, after = run(env, probe())
        assert not mid and after
        assert injector.recovery.mttr() == pytest.approx(10.0)


# --- RPC deadlines, retries, loss --------------------------------------------------
class TestRpcFaults:
    def _rpc(self, rig, handler=None):
        env, cluster, fabric, injector = rig
        rpc = RpcRuntime(env, fabric, streams=SeededStreams(1))
        target = cluster.machine(1)
        endpoint = rpc.endpoint(target)

        def default(args):
            yield env.timeout(1.0 * params.US)
            return "pong", 32

        endpoint.register("t.ping", handler or default)
        return env, cluster, rpc, target

    def test_call_to_dead_machine_times_out(self, rig):
        env, cluster, rpc, target = self._rpc(rig)
        rig[3].crash_machine(1)

        def body():
            start = env.now
            with pytest.raises(RpcTimeout):
                yield from rpc.call(cluster.machine(0), target, "t.ping", {},
                                    deadline=1.0 * params.MS, retries=2)
            return env.now - start

        elapsed = run(env, body())
        # Three attempts' deadlines plus two backoffs must have elapsed.
        assert elapsed >= 3 * 1.0 * params.MS
        assert rpc.counters["rpc_timeouts"] == 3
        assert rpc.counters["rpc_retries"] == 2

    def test_retry_succeeds_after_nic_recovers(self, rig):
        env, cluster, rpc, target = self._rpc(rig)
        injector = rig[3]
        injector.apply([NicFlap(0.0, 1, down_for=1.5 * params.MS)])

        def body():
            yield env.timeout(1.0)  # let the flap driver arm first
            value = yield from rpc.call(
                cluster.machine(0), target, "t.ping", {},
                deadline=1.0 * params.MS, retries=3)
            return value

        assert run(env, body()) == "pong"
        assert rpc.counters["rpc_retries"] >= 1

    def test_rpc_error_is_authoritative_never_retried(self, rig):
        def reject(args):
            yield rig[0].timeout(1.0 * params.US)
            raise RpcError("nope")

        env, cluster, rpc, target = self._rpc(rig, handler=reject)

        def body():
            with pytest.raises(RpcError):
                yield from rpc.call(cluster.machine(0), target, "t.ping", {},
                                    deadline=1.0 * params.MS, retries=3)
            return True

        assert run(env, body())
        assert rpc.counters["rpc_retries"] == 0

    def test_unknown_method_costs_a_round_trip(self, rig):
        """Satellite: the table miss must still burn the request RTT."""
        env, cluster, rpc, target = self._rpc(rig)
        wire = rig[2].wire_latency(cluster.machine(0), target)

        def body():
            start = env.now
            with pytest.raises(RpcError):
                yield from rpc.call(cluster.machine(0), target, "t.nope", {})
            return env.now - start

        elapsed = run(env, body())
        # Request wire + server miss + reply wire: strictly positive and at
        # least two one-way latencies.
        assert elapsed >= 2 * wire + params.RPC_UNKNOWN_METHOD_LATENCY

    def test_unknown_method_on_dead_machine_is_timeout(self, rig):
        env, cluster, rpc, target = self._rpc(rig)
        rig[3].crash_machine(1)

        def body():
            with pytest.raises(RpcTimeout):
                yield from rpc.call(cluster.machine(0), target, "t.nope", {},
                                    deadline=1.0 * params.MS, retries=0)
            return True

        assert run(env, body())

    def test_storm_losses_eventually_get_through(self, rig):
        env, cluster, rpc, target = self._rpc(rig)
        injector = rig[3]
        injector.start_storm(0.6)

        def body():
            value = yield from rpc.call(
                cluster.machine(0), target, "t.ping", {},
                deadline=1.0 * params.MS, retries=8)
            return value

        assert run(env, body()) == "pong"
        assert injector.counters["ud_dropped"] >= 1


class TestWorkerSaturation:
    """Satellite: queued calls are delayed, not dropped; deadlines still
    fire while a request sits in the worker queue."""

    def _slow_rpc(self, rig, service_time):
        env, cluster, fabric, injector = rig
        rpc = RpcRuntime(env, fabric, streams=SeededStreams(1))
        target = cluster.machine(1)

        def slow(args):
            yield env.timeout(service_time)
            return "done", 32

        rpc.endpoint(target).register("t.slow", slow)
        return env, cluster, rpc, target

    def test_saturated_pool_delays_but_serves_all(self, rig):
        service = 100.0 * params.US
        env, cluster, rpc, target = self._slow_rpc(rig, service)
        finish = []

        def caller():
            yield from rpc.call(cluster.machine(0), target, "t.slow", {},
                                deadline=10.0 * params.MS, retries=0)
            finish.append(env.now)

        for _ in range(6):
            env.process(caller())
        env.run()
        assert len(finish) == 6  # nothing dropped
        # Two workers, six calls: three service waves.
        span = max(finish) - min(finish)
        assert span >= 2 * service

    def test_deadline_fires_while_queued(self, rig):
        service = 2.0 * params.MS
        env, cluster, rpc, target = self._slow_rpc(rig, service)
        outcomes = []

        def caller(deadline):
            try:
                yield from rpc.call(cluster.machine(0), target, "t.slow", {},
                                    deadline=deadline, retries=0)
                outcomes.append("ok")
            except RpcTimeout:
                outcomes.append("timeout")

        # Two fill the pool; the third's deadline expires in the queue.
        env.process(caller(50.0 * params.MS))
        env.process(caller(50.0 * params.MS))
        env.process(caller(1.0 * params.MS))
        env.run()
        assert sorted(outcomes) == ["ok", "ok", "timeout"]


# --- Abandoned waiters (interrupt-safety of sim resources) -------------------------
class TestAbandonedWaiters:
    def test_interrupted_resource_waiter_frees_slot(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def holder():
            yield res.acquire()
            yield env.timeout(10.0)
            res.release()

        def waiter():
            try:
                yield res.acquire()
                order.append("acquired")
                res.release()
            except Interrupt:
                order.append("interrupted")

        env.process(holder())
        victim = env.process(waiter())

        def third():
            yield res.acquire()
            order.append("third")
            res.release()

        env.process(third())

        def killer():
            yield env.timeout(1.0)
            victim.interrupt("die")

        env.process(killer())
        env.run()
        assert order == ["interrupted", "third"]

    def test_interrupted_store_getter_detaches(self):
        env = Environment()
        store = Store(env)
        got = []

        def getter():
            try:
                item = yield store.get()
                got.append(item)
            except Interrupt:
                got.append("interrupted")

        victim = env.process(getter())
        survivor = env.process(getter())

        def driver():
            yield env.timeout(1.0)
            victim.interrupt("die")
            yield env.timeout(1.0)
            store.put("x")

        env.process(driver())
        env.run()
        assert got == ["interrupted", "x"]

    def test_granted_undelivered_slot_passes_to_next_waiter(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def waiter(tag):
            try:
                yield res.acquire()
            except Interrupt:
                order.append(tag + " interrupted")
                return
            order.append(tag)
            yield env.timeout(1.0)
            res.release()

        def holder():
            yield res.acquire()
            yield env.timeout(10.0)
            res.release()  # grants the slot to the victim ...
            victim.interrupt("die")  # ... who dies before resuming

        env.process(holder())
        victim = env.process(waiter("a"))
        env.process(waiter("b"))
        env.run()
        assert order == ["a interrupted", "b"]
        assert res.in_use == 0 and res.queued == 0

    def test_granted_undelivered_item_passes_to_next_getter(self):
        env = Environment()
        store = Store(env)
        got = []

        def getter(tag):
            try:
                item = yield store.get()
            except Interrupt:
                got.append(tag + " interrupted")
                return
            got.append((tag, item))

        victim = env.process(getter("a"))
        env.process(getter("b"))

        def driver():
            yield env.timeout(1.0)
            store.put("x")  # grants x to the victim ...
            victim.interrupt("die")  # ... who dies before resuming

        env.process(driver())
        env.run()
        assert got == ["a interrupted", ("b", "x")]
        assert len(store) == 0

    def test_granted_undelivered_item_returns_to_front(self):
        env = Environment()
        store = Store(env)
        store.put("x")
        store.put("y")
        got = []

        def getter(tag):
            try:
                item = yield store.get()
            except Interrupt:
                got.append(tag + " interrupted")
                return
            got.append((tag, item))

        victim = env.process(getter("a"))  # granted x at once ...

        def driver():
            victim.interrupt("die")  # ... and dies before resuming
            yield env.timeout(1.0)
            yield env.process(getter("b"))

        env.process(driver())
        env.run()
        assert got == ["a interrupted", ("b", "x")]
        assert len(store) == 1


# --- QP error semantics ------------------------------------------------------------
class TestQpFaults:
    def test_rc_qp_enters_error_state_on_dead_path(self, rig):
        env, cluster, fabric, injector = rig
        nic = fabric.nic_of(cluster.machine(0))

        def body():
            qp = yield from nic.create_rc_qp(cluster.machine(1))
            injector.cut_link(0, 1)
            with pytest.raises(ConnectionError_):
                yield from qp.read(params.PAGE_SIZE)
            injector.restore_link(0, 1)
            # Link healed but the QP stays unusable: real RC semantics.
            with pytest.raises(ConnectionError_):
                yield from qp.read(params.PAGE_SIZE)
            return qp.state

        assert run(env, body()) == "ERROR"

    def test_dc_dead_peer_vs_revoked_target(self, rig):
        """The §4.3 disambiguation: NAK = revoked, timeout = dead."""
        env, cluster, fabric, injector = rig
        nic0 = fabric.nic_of(cluster.machine(0))
        nic1 = fabric.nic_of(cluster.machine(1))
        target = nic1._new_target(user_key=0xAB)
        qp = DcQp(nic0)

        def body():
            # Destroyed target: loud NAK, quickly.
            nic1.destroy_target(target)
            start = env.now
            with pytest.raises(RemoteAccessError):
                yield from qp.read(cluster.machine(1), target.target_id,
                                   target.key, params.PAGE_SIZE)
            nak_time = env.now - start
            # Dead path: burns the transport retry budget instead.
            injector.cut_link(0, 1)
            start = env.now
            with pytest.raises(ConnectionError_):
                yield from qp.read(cluster.machine(1), target.target_id,
                                   target.key, params.PAGE_SIZE)
            dead_time = env.now - start
            return nak_time, dead_time

        nak_time, dead_time = run(env, body())
        assert dead_time >= params.DC_RETRY_TIMEOUT > nak_time


# --- Leases ------------------------------------------------------------------------
def lease_rig(num_machines=3):
    env = Environment()
    cluster = Cluster(env, num_machines=num_machines, num_racks=1)
    fabric = RdmaFabric(env, cluster)
    injector = FaultInjector(env, cluster).install(fabric)
    rpc = RpcRuntime(env, fabric, streams=SeededStreams(0))
    kernels = [Kernel(env, m) for m in cluster]
    runtimes = [ContainerRuntime(env, k) for k in kernels]
    deployment = MitosisDeployment(env, cluster, fabric, rpc, runtimes)
    deployment.connect_faults(injector, leases=True)
    return env, cluster, kernels, runtimes, deployment, injector


class TestLeases:
    def test_publish_stamps_and_expiry_frees_memory(self):
        env, cluster, kernels, runtimes, deployment, injector = lease_rig()
        node0 = deployment.node(cluster.machine(0))

        def body():
            parent = yield from runtimes[0].cold_start(hello_world_image())
            meta = yield from node0.fork_prepare(parent)
            assert meta.lease_expires_at == pytest.approx(
                env.now + params.LEASE_DURATION)
            used_with = node0.machine.memory.used
            yield env.timeout(params.LEASE_DURATION + 1.0)
            assert node0.service.sweep_leases() == 1
            freed = used_with - node0.machine.memory.used
            return freed

        assert run(env, body()) > 0

    def test_child_renews_stale_handle(self):
        env, cluster, kernels, runtimes, deployment, injector = lease_rig()
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))

        def body():
            parent = yield from runtimes[0].cold_start(hello_world_image())
            meta = yield from node0.fork_prepare(parent)
            # Keep the parent-side lease alive; let the handle go stale.
            yield env.timeout(params.LEASE_DURATION * 0.9)
            node0.service.touch_lease(meta.handler_id)
            yield env.timeout(params.LEASE_DURATION * 0.2)
            assert env.now > meta.lease_expires_at
            child = yield from node1.fork_resume(meta)
            return child, meta

        child, meta = run(env, body())
        assert child.task.state == "runnable"
        assert meta.lease_expires_at > env.now - params.LEASE_DURATION
        node0_counters = node0.service.counters.as_dict()
        assert node0_counters["leases_renewed"] == 1

    def test_expired_descriptor_renewal_raises_lease_expired(self):
        env, cluster, kernels, runtimes, deployment, injector = lease_rig()
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))

        def body():
            parent = yield from runtimes[0].cold_start(hello_world_image())
            meta = yield from node0.fork_prepare(parent)
            yield env.timeout(params.LEASE_DURATION + 1.0)
            with pytest.raises(LeaseExpired):
                yield from node1.fork_resume(meta)
            return True

        assert run(env, body())

    def test_lease_daemon_keeps_descriptor_alive(self):
        env, cluster, kernels, runtimes, deployment, injector = lease_rig()
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        node0.start_lease_daemon()

        def body():
            parent = yield from runtimes[0].cold_start(hello_world_image())
            meta = yield from node0.fork_prepare(parent)
            yield env.timeout(params.LEASE_DURATION * 3)
            child = yield from node1.fork_resume(meta)
            return child

        child = run(env, body())
        assert child.task.state == "runnable"
        node0.stop_lease_daemon()


# --- FnCluster crash recovery ------------------------------------------------------
def small_fn(durable=False, seed=0):
    policy = MitosisPolicy(durable_seed=durable)
    fn = FnCluster(policy, num_invokers=2, num_machines=5, num_dfs_osds=2,
                   seed=seed)
    fn.enable_faults()
    profile = tc0_profile()

    def setup():
        yield from fn.register(profile)

    fn.env.run(fn.env.process(setup()))
    return fn, policy, profile


class TestInvokerCrashRecovery:
    def test_crash_mid_invocations_all_complete_or_fail_loudly(self):
        fn, policy, profile = small_fn(durable=True)
        seed_invoker, _, _ = policy.seeds[profile.name]

        def body():
            procs = [fn.submit(profile.name) for _ in range(8)]
            yield fn.env.timeout(10.0 * params.MS)
            fn.faults.apply([MachineCrash(
                0.0, seed_invoker.machine.machine_id,
                down_for=2.0 * params.SEC)])
            for _ in range(8):
                procs.append(fn.submit(profile.name))
            for proc in procs:
                yield proc
            return fn.records

        records = fn.env.run(fn.env.process(body()))
        fn.stop_fault_daemons()
        assert len(records) == 16
        assert all(r.outcome in ("ok", "recovered", "lost") for r in records)
        assert sum(1 for r in records if r.outcome != "lost") >= 8

    def test_monitor_evicts_and_readmits(self):
        fn, policy, profile = small_fn()
        victim = fn.invokers[0]

        def body():
            fn.faults.apply([MachineCrash(
                0.0, victim.machine.machine_id, down_for=5.0 * params.SEC)])
            # Two missed beats (~2s in) evict; check well before the 5 s
            # restart, then wait past it for the re-admitting ping.
            yield fn.env.timeout(4.0 * params.SEC)
            evicted = not victim.admitting
            yield fn.env.timeout(5.0 * params.SEC)
            return evicted, victim.admitting

        evicted, readmitted = fn.env.run(fn.env.process(body()))
        fn.stop_fault_daemons()
        assert evicted and readmitted
        assert fn.recovery.mttr() is not None
        assert fn.counters["invokers_evicted"] == 1
        assert fn.counters["invokers_readmitted"] == 1

    def test_seed_reelected_when_host_crashes(self):
        fn, policy, profile = small_fn()
        seed_invoker, _, _ = policy.seeds[profile.name]

        def body():
            fn.faults.crash_machine(seed_invoker.machine.machine_id)
            # The crash hook spawned a re-election; let it run.
            yield fn.env.timeout(2.0 * params.SEC)
            record = yield from fn.invoke(profile.name)
            return record

        record = fn.env.run(fn.env.process(body()))
        fn.stop_fault_daemons()
        assert record.outcome in ("ok", "recovered")
        assert policy.counters["seed_reelections"] == 1
        new_invoker, _, _ = policy.seeds[profile.name]
        assert new_invoker.index != seed_invoker.index

    def test_fail_free_path_untouched(self):
        """With no injector, invoke keeps the seed's exact event sequence."""
        policy = MitosisPolicy()
        fn = FnCluster(policy, num_invokers=2, num_machines=5,
                       num_dfs_osds=2, seed=0)
        profile = tc0_profile()

        def setup():
            yield from fn.register(profile)

        fn.env.run(fn.env.process(setup()))

        def body():
            record = yield from fn.invoke(profile.name)
            return record

        record = fn.env.run(fn.env.process(body()))
        assert record.outcome == "ok"
        assert record.attempts == 1
        assert fn.counters.as_dict() == {}
