"""Edge-case coverage for the simulation kernel and RDMA details."""

import gc

import pytest

from repro import params
from repro.cluster import Cluster
from repro.rdma import RdmaFabric
from repro.sim import (
    AllOf,
    AnyOf,
    EmptySchedule,
    Environment,
    Event,
    Interrupt,
    Resource,
    SimulationError,
    Store,
    Timeout,
)
from repro.sim.scheduler import default_scheduler_name


def run(env, gen):
    return env.run(env.process(gen))


class TestEventEdgeCases:
    def test_value_of_pending_event_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().value

    def test_defused_failure_does_not_crash_run(self):
        env = Environment()
        evt = env.event()
        evt.fail(RuntimeError("handled elsewhere"))
        evt.defuse()
        env.run()  # no exception

    def test_run_until_already_triggered_event(self):
        env = Environment()
        evt = env.event()
        evt.succeed("early")
        assert env.run(evt) == "early"

    def test_run_until_already_failed_event(self):
        env = Environment()
        evt = env.event()
        evt.fail(RuntimeError("early failure"))
        evt.defuse()
        with pytest.raises(RuntimeError):
            env.run(evt)

    def test_condition_failure_propagates(self):
        env = Environment()

        def failing():
            yield env.timeout(1.0)
            raise ValueError("inner")

        def waiter():
            p1 = env.process(failing())
            p2 = env.timeout(10.0)
            with pytest.raises(ValueError):
                yield AllOf(env, [p1, p2])
            return True

        assert run(env, waiter())

    def test_any_of_failure_beats_success(self):
        env = Environment()

        def failing():
            yield env.timeout(1.0)
            raise ValueError("first")

        def waiter():
            p1 = env.process(failing())
            p2 = env.timeout(5.0)
            with pytest.raises(ValueError):
                yield AnyOf(env, [p1, p2])
            return True

        assert run(env, waiter())

    def test_yield_bare_none_continues(self):
        env = Environment()

        def body():
            yield
            return env.now

        assert env.run(env.process(body())) == 0.0

    def test_yield_non_event_raises_in_process(self):
        env = Environment()

        def body():
            with pytest.raises(SimulationError):
                yield 42
            return "survived"

        assert env.run(env.process(body())) == "survived"

    def test_peek_empty_queue_is_inf(self):
        env = Environment()
        assert env.peek() == float("inf")

    def test_step_empty_queue_raises(self):
        env = Environment()
        with pytest.raises(EmptySchedule):
            env.step()

    def test_schedule_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.schedule(env.event(), delay=-1)

    def test_process_requires_generator(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_condition_over_non_event_rejected(self):
        env = Environment()
        with pytest.raises(TypeError):
            AllOf(env, [42])


class TestStoreEdgeCases:
    def test_cancel_pending_getter(self):
        env = Environment()
        store = Store(env)
        getter = store.get()
        store.cancel(getter)
        store.put("x")  # must not be swallowed by the cancelled getter
        assert len(store) == 1

    def test_cancel_unknown_getter_noop(self):
        env = Environment()
        store = Store(env)
        other = Event(env)
        store.cancel(other)  # no error


class TestUdChunking:
    def test_multi_mtu_payload_costs_more_per_byte(self):
        env = Environment()
        cluster = Cluster(env, num_machines=2, num_racks=1)
        fabric = RdmaFabric(env, cluster)
        from repro.rdma.qp import UdQp
        qp = UdQp(fabric.nic_of(cluster.machine(0)))

        def timed(nbytes):
            start = env.now
            yield from qp.send(cluster.machine(1), nbytes)
            return env.now - start

        one_chunk = run(env, timed(4096))
        many_chunks = run(env, timed(64 * 4096))
        # 64 chunks cost 63 extra per-packet overheads on top of 64x wire.
        assert many_chunks > 64 * (one_chunk - params.UD_RPC_BASE_LATENCY / 2)

    def test_loopback_fabric_attaches_all(self):
        env = Environment()
        cluster = Cluster(env, num_machines=3, num_racks=1)
        fabric = RdmaFabric(env, cluster)
        assert all(m.nic is not None for m in cluster)


class TestRcWrite:
    def test_write_pays_wire_and_bandwidth(self):
        env = Environment()
        cluster = Cluster(env, num_machines=2, num_racks=1)
        fabric = RdmaFabric(env, cluster)
        nic = fabric.nic_of(cluster.machine(0))

        def body():
            qp = yield from nic.create_rc_qp(cluster.machine(1))
            start = env.now
            yield from qp.write(params.MB)
            return env.now - start

        elapsed = run(env, body())
        expected_min = params.transfer_time(params.MB, params.RDMA_BANDWIDTH)
        assert elapsed > expected_min
        assert nic.counters["rc_write"] == 1

    def test_closed_qp_rejects_write(self):
        env = Environment()
        cluster = Cluster(env, num_machines=2, num_racks=1)
        fabric = RdmaFabric(env, cluster)
        nic = fabric.nic_of(cluster.machine(0))

        def body():
            qp = yield from nic.create_rc_qp(cluster.machine(1))
            qp.close()
            from repro.rdma import ConnectionError_
            with pytest.raises(ConnectionError_):
                yield from qp.write(64)
            return True

        assert run(env, body())


class TestPagerLineageErrors:
    def test_fetch_without_lineage_raises_lookup_error(self):
        from repro.containers import ContainerRuntime, hello_world_image
        from repro.core import MitosisDeployment
        from repro.kernel import Kernel
        from repro.rdma import RpcRuntime

        env = Environment()
        cluster = Cluster(env, num_machines=2, num_racks=1)
        fabric = RdmaFabric(env, cluster)
        rpc = RpcRuntime(env, fabric)
        kernels = [Kernel(env, m) for m in cluster]
        runtimes = [ContainerRuntime(env, k) for k in kernels]
        deployment = MitosisDeployment(env, cluster, fabric, rpc, runtimes)

        def body():
            task = kernels[0].create_task("orphan")
            from repro.kernel import VmaKind
            vma = task.address_space.add_vma(2, VmaKind.HEAP)
            pte = task.address_space.page_table.ensure(vma.start_vpn)
            pte.remote = True
            pte.remote_pfn = 1
            with pytest.raises(LookupError):
                yield from kernels[0].touch(task, vma.start_vpn)
            return True

        assert run(env, body())


class ResilienceStyleError(Exception):
    """Kwargs-only, attribute-carrying error like the typed resilience
    exceptions: ``type(exc)(*exc.args)`` cannot rebuild it."""

    def __init__(self, *, machine_id):
        super().__init__("machine %d" % machine_id)
        self.machine_id = machine_id


class TestExceptionFidelity:
    """Failures must propagate the *original* exception object.

    Rebuilding via ``type(exc)(*exc.args)`` would crash on kwargs-only
    constructors and strip attributes attached after construction.
    """

    def test_process_failure_keeps_exception_identity(self):
        env = Environment()
        raised = ResilienceStyleError(machine_id=3)

        def failing():
            yield env.timeout(1.0)
            raise raised

        def waiter():
            try:
                yield env.process(failing())
            except ResilienceStyleError as exc:
                return exc
            return None

        caught = run(env, waiter())
        assert caught is raised
        assert caught.machine_id == 3

    def test_condition_failure_keeps_exception_identity(self):
        env = Environment()
        raised = ResilienceStyleError(machine_id=9)

        def failing():
            yield env.timeout(1.0)
            raise raised

        def waiter():
            try:
                yield AllOf(env, [env.process(failing()), env.timeout(5.0)])
            except ResilienceStyleError as exc:
                return exc
            return None

        assert run(env, waiter()) is raised

    def test_attributes_added_after_construction_survive(self):
        env = Environment()

        def failing():
            yield env.timeout(1.0)
            err = RuntimeError("degraded")
            err.breadcrumb = ("pager", "fetch_range")
            raise err

        def waiter():
            try:
                yield env.process(failing())
            except RuntimeError as exc:
                return exc.breadcrumb

        assert run(env, waiter()) == ("pager", "fetch_range")


class TestConditionFlattening:
    """``a & b & c`` builds ONE condition over three events, not a tree."""

    def test_and_chain_flattens(self):
        env = Environment()
        a, b, c = env.timeout(1), env.timeout(2), env.timeout(3)
        cond = a & b & c
        assert type(cond) is AllOf
        assert cond._events == [a, b, c]

    def test_or_chain_flattens(self):
        env = Environment()
        a, b, c, d = (env.timeout(i) for i in range(1, 5))
        cond = a | b | c | d
        assert type(cond) is AnyOf
        assert cond._events == [a, b, c, d]

    def test_leaf_callback_count_stays_linear(self):
        # Each leaf carries exactly ONE callback (the final condition's
        # settle hook); a nested tree would stack one per chain link.
        env = Environment()
        leaves = [env.event() for _ in range(16)]
        cond = leaves[0]
        for leaf in leaves[1:]:
            cond = cond & leaf
        assert len(cond._events) == len(leaves)
        for leaf in leaves:
            assert len(leaf.callbacks) == 1

    def test_mixed_chain_keeps_inner_condition(self):
        env = Environment()
        a, b, c = env.timeout(1), env.timeout(2), env.timeout(3)
        inner = a | b
        outer = inner & c
        assert outer._events == [inner, c]

    def test_observed_intermediate_not_absorbed(self):
        # Once something waits on the inner condition its identity is
        # load-bearing; flattening would steal its constituents.
        env = Environment()
        a, b, c = env.timeout(1), env.timeout(2), env.timeout(3)
        inner = a & b
        inner.callbacks.append(lambda event: None)
        outer = inner & c
        assert outer._events == [inner, c]

    def test_triggered_intermediate_not_absorbed(self):
        env = Environment()
        inner = AllOf(env, [])  # settles immediately
        c = env.timeout(1)
        outer = inner & c
        assert outer._events == [inner, c]

    def test_flattened_chain_still_collects_all_values(self):
        env = Environment()

        def body():
            a = env.timeout(1, value="a")
            b = env.timeout(2, value="b")
            c = env.timeout(3, value="c")
            got = yield a & b & c
            return sorted(got.values())

        assert run(env, body()) == ["a", "b", "c"]


class TestAnyOfInterruptAbandon:
    """Interrupting a waiter mid-``AnyOf`` releases constituent hooks."""

    def test_queued_resource_grant_released(self):
        from repro.sim import Interrupt, Resource

        env = Environment()
        res = Resource(env, capacity=1)

        def holder():
            yield res.acquire()
            yield env.timeout(100.0)
            res.release()

        def waiter():
            try:
                yield res.acquire() | env.timeout(50.0)
            except Interrupt:
                return "interrupted"
            return "raced"

        def driver():
            env.process(holder())
            yield env.timeout(0)
            victim = env.process(waiter())
            yield env.timeout(5.0)
            assert res.queued == 1
            victim.interrupt()
            result = yield victim
            return result

        assert run(env, driver()) == "interrupted"
        assert res.queued == 0  # the queue spot came back

    def test_pending_store_getter_withdrawn(self):
        from repro.sim import Interrupt

        env = Environment()
        store = Store(env)

        def waiter():
            try:
                yield store.get() | env.timeout(50.0)
            except Interrupt:
                return "interrupted"
            return "raced"

        def driver():
            victim = env.process(waiter())
            yield env.timeout(5.0)
            victim.interrupt()
            result = yield victim
            store.put("x")  # must NOT be swallowed by the dead getter
            return result

        assert run(env, driver()) == "interrupted"
        assert len(store) == 1


class TestSameTimestampFifo:
    """Events at one timestamp fire in scheduling order, deterministically."""

    def test_zero_delay_timeouts_fire_in_creation_order(self):
        env = Environment()
        order = []

        def note(i):
            yield env.timeout(0)
            order.append(i)

        def driver():
            for i in range(20):
                env.process(note(i))
            yield env.timeout(1.0)
            return order

        assert run(env, driver()) == list(range(20))

    def test_equal_delay_from_different_creation_times(self):
        env = Environment()
        order = []

        def note(tag, delay):
            yield env.timeout(delay)
            order.append(tag)

        def driver():
            env.process(note("early-long", 10.0))
            yield env.timeout(4.0)
            env.process(note("late-short", 6.0))  # also lands at t=10
            yield env.timeout(20.0)
            return order

        # Both settle at t=10; the earlier-scheduled one wins the tie.
        assert run(env, driver()) == ["early-long", "late-short"]

    def test_ties_zero_delays_and_interrupt_trace(self):
        env = Environment()
        trace = []

        def worker(name, delays):
            for delay in delays:
                yield env.timeout(delay)
                trace.append((env.now, name))

        def sleeper():
            try:
                yield env.timeout(50.0)
                trace.append((env.now, "slept"))
            except Exception as exc:
                trace.append((env.now, "interrupted:%s" % exc.args))

        env.process(worker("a", [1.0, 0.0, 2.0]))
        env.process(worker("b", [1.0, 2.0, 0.0]))
        env.process(worker("c", [3.0, 0.0]))
        victim = env.process(sleeper())

        def killer():
            yield env.timeout(2.0)
            victim.interrupt("now")

        env.process(killer())
        env.run()
        assert trace == [(1.0, "a"), (1.0, "b"), (1.0, "a"),
                         (2.0, "interrupted:now"), (3.0, "c"), (3.0, "b"),
                         (3.0, "a"), (3.0, "c"), (3.0, "b")]
        assert env.events_processed == 21


class TestSchedulerKnob:
    """``REPRO_SCHED`` accepts only the heap, the one scheduler there is."""

    @pytest.mark.parametrize("value", [None, "", "heap"],
                             ids=["unset", "empty", "heap"])
    def test_default_is_heap(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("REPRO_SCHED", raising=False)
        else:
            monkeypatch.setenv("REPRO_SCHED", value)
        assert default_scheduler_name() == "heap"

    @pytest.mark.parametrize("value", ["calendar", "splay"])
    def test_invalid_name_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SCHED", value)
        with pytest.raises(ValueError):
            default_scheduler_name()


class TestInstrumentStep:
    def test_wrapper_sees_every_step(self):
        env = Environment()
        seen = [0]

        def wrap(step):
            def wrapped():
                seen[0] += 1
                return step()
            return wrapped

        def ticker():
            for _ in range(5):
                yield env.timeout(1.0)

        env.instrument_step(wrap)
        env.process(ticker())
        env.run()
        assert seen[0] == env.events_processed > 0

    def test_double_install_rejected_and_uninstall_idempotent(self):
        env = Environment()
        env.instrument_step(lambda step: step)
        with pytest.raises(SimulationError):
            env.instrument_step(lambda step: step)
        env.uninstrument_step()
        env.uninstrument_step()  # no-op
        env.instrument_step(lambda step: step)  # re-install is fine

    def test_no_wrapper_means_no_instance_state(self):
        # The zero-cost-off contract: an uninstrumented environment has
        # nothing shadowing the class method.
        env = Environment()
        assert "step" not in env.__dict__
        env.instrument_step(lambda step: step)
        env.uninstrument_step()
        assert "step" not in env.__dict__


class TestTimeoutPooling:
    """Fired timeouts are recycled, but never while anyone can observe them."""

    def test_fired_timeouts_are_recycled(self):
        env = Environment()

        def body():
            for _ in range(8):
                yield env.timeout(1.0)

        run(env, body())
        assert env._timeout_pool
        pooled = env._timeout_pool[-1]
        fresh = env.timeout(2.5, value="v")
        assert fresh is pooled  # reuse, not a new allocation
        assert fresh.callbacks == []
        assert fresh._delay == 2.5
        assert fresh._value == "v"

    def test_held_timeout_is_never_pooled(self):
        env = Environment()

        def body():
            held = env.timeout(1.0)
            yield held
            # Our reference kept it out of the pool; a new timeout must be
            # a different object and `held` stays settled forever.
            replacement = env.timeout(1.0)
            assert replacement is not held
            assert held.processed
            yield replacement
            assert held.processed

        run(env, body())

    def test_settled_event_is_not_resurrected(self):
        env = Environment()
        witness = env.timeout(1.0)
        env.run(until=2.0)
        assert witness.processed
        for _ in range(50):  # churn the pool hard
            env.run(env.process((env.timeout(0.1) for _ in range(1))))
        assert witness.processed  # still the same dead event
        assert witness.callbacks is None

    def test_rearmed_timeout_matches_a_fresh_one(self):
        env = Environment()

        def sleeper():
            try:
                yield env.timeout(5.0)
            except Interrupt:
                pass

        victim = env.process(sleeper())

        def killer():
            yield env.timeout(1.0)
            victim.interrupt()

        env.process(killer())
        env.run()
        # The abandoned timeout was defused, then fired unobserved.
        assert any(t._defused for t in env._timeout_pool)
        rearmed = [env.timeout(2.0, value="v")
                   for _ in range(len(env._timeout_pool))]
        fresh = Timeout(env, 2.0, value="v")
        fields = ("callbacks", "_value", "_ok", "_defused", "_abandon",
                  "_delay")
        for timeout in rearmed:
            assert ([getattr(timeout, f) for f in fields]
                    == [getattr(fresh, f) for f in fields])

    def test_negative_delay_rejected_even_from_pool(self):
        env = Environment()
        run(env, (env.timeout(1.0) for _ in range(2)))
        assert env._timeout_pool
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_pool_is_bounded(self):
        from repro.sim import loop

        env = Environment()

        def spray():
            conds = [env.timeout(0.001 * i) for i in range(1500)]
            yield AllOf(env, conds)

        run(env, spray())
        assert len(env._timeout_pool) <= loop._TIMEOUT_POOL_MAX


class TestAbandonHooksLeaveNoCycles:
    """An ``_abandon`` hook never closes over its own event, so grants,
    getters and conditions are freed by refcounting alone."""

    def test_hooked_events_need_no_cyclic_gc(self):
        gc.collect()
        gc.disable()
        try:
            env = Environment()
            res = Resource(env, capacity=1)
            store = Store(env)

            def user():
                yield res.acquire() & env.timeout(1.0)
                yield store.get() | env.timeout(50.0)
                res.release()

            def victim(wait):
                yield env.timeout(0.05)
                try:
                    yield wait()  # queued behind the users
                except Interrupt:
                    pass

            def producer():
                for item in range(4):
                    yield env.timeout(0.5)
                    store.put(item)

            users = [env.process(user()) for _ in range(4)]
            doomed = [env.process(victim(res.acquire)),
                      env.process(victim(store.get))]
            env.process(producer())

            def killer():
                yield env.timeout(0.1)
                for proc in doomed:
                    proc.interrupt()

            env.process(killer())
            env.run()
            assert all(proc.ok for proc in users)
            assert res.in_use == 0 and len(store) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
