"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    EmptySchedule,
    Environment,
    EventAlreadyTriggered,
    Gate,
    Interrupt,
    Resource,
    SeededStreams,
    SimulationError,
    Store,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def body():
        yield env.timeout(5.0)
        return env.now

    proc = env.process(body())
    assert env.run(proc) == 5.0


def test_timeouts_fire_in_order():
    env = Environment()
    seen = []

    def waiter(delay):
        yield env.timeout(delay)
        seen.append(delay)

    for delay in (3.0, 1.0, 2.0):
        env.process(waiter(delay))
    env.run()
    assert seen == [1.0, 2.0, 3.0]


def test_equal_time_events_fifo():
    env = Environment()
    seen = []

    def waiter(tag):
        yield env.timeout(1.0)
        seen.append(tag)

    for tag in "abc":
        env.process(waiter(tag))
    env.run()
    assert seen == ["a", "b", "c"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_process_return_value():
    env = Environment()

    def body():
        yield env.timeout(1.0)
        return "done"

    assert env.run(env.process(body())) == "done"


def test_process_waits_on_process():
    env = Environment()

    def child():
        yield env.timeout(2.0)
        return 42

    def parent():
        value = yield env.process(child())
        return value + 1

    assert env.run(env.process(parent())) == 43


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    def parent():
        try:
            yield env.process(child())
        except RuntimeError as exc:
            return str(exc)

    assert env.run(env.process(parent())) == "boom"


def test_unhandled_process_exception_surfaces():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        raise RuntimeError("unseen")

    env.process(child())
    with pytest.raises(RuntimeError, match="unseen"):
        env.run()


def test_run_until_time_stops_clock():
    env = Environment()

    def body():
        yield env.timeout(100.0)

    env.process(body())
    env.run(until=30.0)
    assert env.now == 30.0


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_never_fires_raises():
    env = Environment()
    pending = env.event()
    with pytest.raises(EmptySchedule):
        env.run(pending)


def test_manual_event_succeed():
    env = Environment()
    evt = env.event()

    def setter():
        yield env.timeout(2.0)
        evt.succeed("payload")

    def getter():
        value = yield evt
        return (env.now, value)

    env.process(setter())
    assert env.run(env.process(getter())) == (2.0, "payload")


def test_event_double_succeed_rejected():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        evt.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_all_of_waits_for_all():
    env = Environment()

    def body():
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(3.0, value="b")
        results = yield AllOf(env, [t1, t2])
        return (env.now, sorted(results.values()))

    assert env.run(env.process(body())) == (3.0, ["a", "b"])


def test_any_of_fires_on_first():
    env = Environment()

    def body():
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        results = yield AnyOf(env, [t1, t2])
        return (env.now, list(results.values()))

    assert env.run(env.process(body())) == (1.0, ["fast"])


def test_condition_operators():
    env = Environment()

    def body():
        t1 = env.timeout(1.0)
        t2 = env.timeout(2.0)
        yield t1 & t2
        return env.now

    assert env.run(env.process(body())) == 2.0


def test_empty_all_of_fires_immediately():
    env = Environment()

    def body():
        result = yield AllOf(env, [])
        return result

    assert env.run(env.process(body())) == {}


def test_interrupt_delivers_cause():
    env = Environment()

    def victim():
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, env.now)

    def attacker(target):
        yield env.timeout(5.0)
        target.interrupt(cause="revoked")

    target = env.process(victim())
    env.process(attacker(target))
    assert env.run(target) == ("interrupted", "revoked", 5.0)


def test_interrupt_dead_process_rejected():
    env = Environment()

    def body():
        yield env.timeout(1.0)

    proc = env.process(body())
    env.run(proc)
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_self_interrupt_rejected():
    env = Environment()

    def body():
        with pytest.raises(SimulationError):
            env.active_process.interrupt()
        yield env.timeout(0)

    env.run(env.process(body()))


class TestResource:
    def test_capacity_enforced(self):
        env = Environment()
        res = Resource(env, capacity=2)
        order = []

        def worker(tag):
            yield res.acquire()
            order.append((tag, env.now))
            yield env.timeout(10.0)
            res.release()

        for tag in "abc":
            env.process(worker(tag))
        env.run()
        assert order == [("a", 0.0), ("b", 0.0), ("c", 10.0)]

    def test_fifo_wakeup(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def worker(tag, start):
            yield env.timeout(start)
            yield res.acquire()
            order.append(tag)
            yield env.timeout(5.0)
            res.release()

        env.process(worker("first", 0.0))
        env.process(worker("second", 1.0))
        env.process(worker("third", 2.0))
        env.run()
        assert order == ["first", "second", "third"]

    def test_release_without_acquire_rejected(self):
        env = Environment()
        res = Resource(env)
        with pytest.raises(SimulationError):
            res.release()

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_counters(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def holder():
            yield res.acquire()
            yield env.timeout(10.0)
            res.release()

        def observer():
            yield env.timeout(1.0)
            return (res.in_use, res.queued)

        env.process(holder())
        env.process(holder())
        obs = env.process(observer())
        assert env.run(obs) == (1, 1)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)

        def body():
            store.put("x")
            value = yield store.get()
            return value

        assert env.run(env.process(body())) == "x"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)

        def producer():
            yield env.timeout(7.0)
            store.put("late")

        def consumer():
            value = yield store.get()
            return (value, env.now)

        env.process(producer())
        assert env.run(env.process(consumer())) == ("late", 7.0)

    def test_fifo_items(self):
        env = Environment()
        store = Store(env)
        store.put(1)
        store.put(2)

        def body():
            first = yield store.get()
            second = yield store.get()
            return [first, second]

        assert env.run(env.process(body())) == [1, 2]

    def test_len(self):
        env = Environment()
        store = Store(env)
        store.put("a")
        assert len(store) == 1


class TestGate:
    def test_broadcast(self):
        env = Environment()
        gate = Gate(env)
        woken = []

        def waiter(tag):
            value = yield gate.wait()
            woken.append((tag, value))

        def opener():
            yield env.timeout(3.0)
            gate.open("go")

        env.process(waiter("a"))
        env.process(waiter("b"))
        env.process(opener())
        env.run()
        assert sorted(woken) == [("a", "go"), ("b", "go")]

    def test_rearm(self):
        env = Environment()
        gate = Gate(env)
        count = gate.open()
        assert count == 0


class TestSeededStreams:
    def test_deterministic_across_instances(self):
        a = SeededStreams(seed=7).stream("x").random()
        b = SeededStreams(seed=7).stream("x").random()
        assert a == b

    def test_streams_independent(self):
        streams = SeededStreams(seed=7)
        first = [streams.stream("a").random() for _ in range(3)]
        fresh = SeededStreams(seed=7)
        fresh.stream("b").random()  # interleave another stream
        second = [fresh.stream("a").random() for _ in range(3)]
        assert first == second

    def test_different_seeds_differ(self):
        assert (SeededStreams(1).stream("x").random()
                != SeededStreams(2).stream("x").random())

    def test_exponential_positive(self):
        streams = SeededStreams(seed=3)
        for _ in range(100):
            assert streams.exponential("arrivals", mean=10.0) > 0
