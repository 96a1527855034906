"""Unit tests for the simulated RDMA stack."""

import math
import statistics

import pytest

from repro import params
from repro.cluster import Cluster
from repro.rdma import (
    RdmaFabric,
    RemoteAccessError,
    RpcError,
    RpcRuntime,
)
from repro.sim import Environment, Interrupt, SeededStreams


@pytest.fixture
def rig():
    env = Environment()
    cluster = Cluster(env, num_machines=4, num_racks=1)
    fabric = RdmaFabric(env, cluster)
    return env, cluster, fabric


def run(env, gen):
    return env.run(env.process(gen))


class TestStream:
    """The NIC link is a virtual-clock FCFS server: ``free_at`` is when
    it next falls idle, and each transfer sleeps once."""

    def test_idle_link_streams_at_once_busy_link_queues(self, rig):
        env, cluster, fabric = rig
        nic = fabric.nic_of(cluster.machine(0))
        nbytes = 64 * params.PAGE_SIZE
        duration = params.transfer_time(nbytes, params.RDMA_BANDWIDTH)
        then = params.RDMA_READ_LATENCY
        done = []

        def sender(tag):
            yield from fabric.stream(nic, nbytes, then=then)
            done.append((tag, env.now))

        senders = ("first", "second", "third")
        for tag in senders:
            env.process(sender(tag))
        env.run()
        # Back to back: the k-th transfer ends at k*d, and its sender
        # wakes ``then`` later, each end the same float sum the link's
        # clock advances by.
        expected, end = [], 0.0
        for tag in senders:
            end = end + duration
            expected.append((tag, end + then))
        assert done == expected
        assert nic.free_at == end
        # Per sender: its Initialize, ONE wire wake-up and its completion.
        assert env.events_processed == 3 * len(senders)

    def test_interrupted_transfer_runs_to_its_end(self, rig):
        env, cluster, fabric = rig
        nic = fabric.nic_of(cluster.machine(0))
        nbytes = 64 * params.PAGE_SIZE
        duration = params.transfer_time(nbytes, params.RDMA_BANDWIDTH)

        def first():
            try:
                yield from fabric.stream(nic, nbytes)
            except Interrupt:
                return env.now

        def later():
            yield env.timeout(6.0)
            yield from fabric.stream(nic, nbytes)
            return env.now

        proc = env.process(first())
        late = env.process(later())

        def interrupter():
            yield env.timeout(5.0)  # the transfer takes ~21 us
            proc.interrupt()

        env.process(interrupter())
        env.run()
        # The sender stops waiting at once ...
        assert proc.value == 5.0
        # ... but the link finishes the transfer it admitted: the later
        # sender starts at the first transfer's scheduled end.
        assert late.value == duration + duration
        assert nic.free_at == late.value


class TestLinkQueue:
    """NIC egress against its closed form: an M/D/1 queue."""

    RHO = 0.7
    NBYTES = 16 * params.PAGE_SIZE
    REPLICATIONS = 30
    ARRIVALS = 3000
    WARMUP = 200

    def _mean_wait(self, seed):
        """One seeded replication: Poisson arrivals of fixed-size
        transfers into one idle NIC; the mean queueing wait of every
        transfer after the warm-up."""
        env = Environment()
        cluster = Cluster(env, num_machines=2, num_racks=1)
        fabric = RdmaFabric(env, cluster)
        nic = fabric.nic_of(cluster.machine(0))
        service = params.transfer_time(self.NBYTES, params.RDMA_BANDWIDTH)
        streams = SeededStreams(seed)
        waits = []

        def sender(index):
            arrived = env.now
            yield from fabric.stream(nic, self.NBYTES)
            if index >= self.WARMUP:
                waits.append(env.now - arrived - service)

        def source():
            for index in range(self.ARRIVALS):
                yield env.timeout(
                    streams.exponential("arrivals", service / self.RHO))
                env.process(sender(index))

        env.process(source())
        env.run()
        return statistics.fmean(waits), service

    def test_md1_mean_wait_matches_pollaczek_khinchine(self):
        """Mean wait = rho*d / (2(1-rho)) for deterministic service d.

        Tolerance from the sample size: the replications draw from
        independent seeds, so their means are i.i.d. and the grand
        mean's standard error is their spread over sqrt(R).  Four
        standard errors bound a false failure below 0.1% (Student t,
        29 df); the error itself must stay under 3% of the closed form,
        so the bound cannot pass by being wide.  Warm-up arrivals are
        dropped because every replication starts on an empty link.
        """
        means = []
        for seed in range(self.REPLICATIONS):
            mean, service = self._mean_wait(seed)
            means.append(mean)
        closed_form = self.RHO * service / (2.0 * (1.0 - self.RHO))
        grand = statistics.fmean(means)
        stderr = statistics.stdev(means) / math.sqrt(self.REPLICATIONS)
        assert stderr < 0.03 * closed_form
        assert abs(grand - closed_form) <= 4.0 * stderr


class TestRcQp:
    def test_creation_pays_rate_limit_and_handshake(self, rig):
        env, cluster, fabric = rig
        nic = fabric.nic_of(cluster.machine(0))

        def body():
            yield from nic.create_rc_qp(cluster.machine(1))
            return env.now

        elapsed = run(env, body())
        assert elapsed == pytest.approx(
            params.RCQP_CREATE_LATENCY + params.RC_CONNECT_LATENCY)

    def test_creation_serialized_at_700_per_sec(self, rig):
        env, cluster, fabric = rig
        nic = fabric.nic_of(cluster.machine(0))
        done = []

        def creator():
            yield from nic.create_rc_qp(cluster.machine(1))
            done.append(env.now)

        for _ in range(3):
            env.process(creator())
        env.run()
        # Creation slots are serialized; handshakes overlap.
        assert done[1] - done[0] == pytest.approx(params.RCQP_CREATE_LATENCY)
        assert done[2] - done[1] == pytest.approx(params.RCQP_CREATE_LATENCY)

    def test_read_latency_small_payload(self, rig):
        env, cluster, fabric = rig
        nic = fabric.nic_of(cluster.machine(0))

        def body():
            qp = yield from nic.create_rc_qp(cluster.machine(1))
            start = env.now
            yield from qp.read(64)
            return env.now - start

        elapsed = run(env, body())
        expected = params.RDMA_READ_LATENCY + params.transfer_time(
            64, params.RDMA_BANDWIDTH)
        assert elapsed == pytest.approx(expected)

    def test_read_page_dominated_by_bandwidth(self, rig):
        env, cluster, fabric = rig
        nic = fabric.nic_of(cluster.machine(0))

        def body():
            qp = yield from nic.create_rc_qp(cluster.machine(1))
            start = env.now
            yield from qp.read(params.PAGE_SIZE)
            return env.now - start

        elapsed = run(env, body())
        assert elapsed > params.RDMA_READ_LATENCY

    def test_mr_check_rejects_out_of_bounds(self, rig):
        env, cluster, fabric = rig
        src = fabric.nic_of(cluster.machine(0))
        dst = fabric.nic_of(cluster.machine(1))

        def body():
            region = yield from dst.mrs.register(addr=0x1000, length=4096)
            qp = yield from src.create_rc_qp(cluster.machine(1))
            yield from qp.read(64, rkey=region.rkey, addr=0x1000)  # in bounds
            with pytest.raises(RemoteAccessError):
                yield from qp.read(64, rkey=region.rkey, addr=0x9000)
            return True

        assert run(env, body())

    def test_deregistered_mr_rejects(self, rig):
        env, cluster, fabric = rig
        src = fabric.nic_of(cluster.machine(0))
        dst = fabric.nic_of(cluster.machine(1))

        def body():
            region = yield from dst.mrs.register(addr=0, length=4096)
            qp = yield from src.create_rc_qp(cluster.machine(1))
            yield from dst.mrs.deregister(region)
            with pytest.raises(RemoteAccessError):
                yield from qp.read(64, rkey=region.rkey, addr=0)
            return True

        assert run(env, body())

    def test_mr_registration_cost_linear(self, rig):
        env, cluster, fabric = rig
        nic = fabric.nic_of(cluster.machine(0))

        def timed_register(length):
            start = env.now
            yield from nic.mrs.register(addr=0, length=length)
            return env.now - start

        small = run(env, timed_register(params.MB))
        env2 = Environment()
        cluster2 = Cluster(env2, num_machines=1)
        fabric2 = RdmaFabric(env2, cluster2)
        nic2 = fabric2.nic_of(cluster2.machine(0))

        def timed_register2():
            start = env2.now
            yield from nic2.mrs.register(addr=0, length=64 * params.MB)
            return env2.now - start

        large = env2.run(env2.process(timed_register2()))
        assert large > small

    def test_closed_qp_rejects(self, rig):
        env, cluster, fabric = rig
        nic = fabric.nic_of(cluster.machine(0))

        def body():
            qp = yield from nic.create_rc_qp(cluster.machine(1))
            qp.close()
            try:
                yield from qp.read(64)
            except Exception as exc:
                return type(exc).__name__

        assert run(env, body()) == "ConnectionError_"


class TestDcQp:
    def test_one_dcqp_reaches_many_machines(self, rig):
        env, cluster, fabric = rig
        src = fabric.nic_of(cluster.machine(0))

        def body():
            dcqp = yield from src.create_dc_qp()
            targets = []
            for mid in (1, 2, 3):
                peer = fabric.nic_of(cluster.machine(mid))
                target = peer._new_target(user_key=mid)
                targets.append((cluster.machine(mid), target))
            for machine, target in targets:
                yield from dcqp.read(machine, target.target_id, target.key, 4096)
            return src.counters["dc_read"]

        assert run(env, body()) == 3

    def test_destroyed_target_rejected(self, rig):
        env, cluster, fabric = rig
        src = fabric.nic_of(cluster.machine(0))
        dst = fabric.nic_of(cluster.machine(1))

        def body():
            dcqp = yield from src.create_dc_qp()
            target = dst._new_target(user_key=9)
            yield from dcqp.read(cluster.machine(1), target.target_id,
                                 target.key, 4096)
            dst.destroy_target(target)
            with pytest.raises(RemoteAccessError):
                yield from dcqp.read(cluster.machine(1), target.target_id,
                                     target.key, 4096)
            return src.counters.as_dict()

        counters = run(env, body())
        assert counters["dc_read"] == 1
        assert counters["dc_read_rejected"] == 1

    def test_wrong_key_rejected(self, rig):
        env, cluster, fabric = rig
        src = fabric.nic_of(cluster.machine(0))
        dst = fabric.nic_of(cluster.machine(1))

        def body():
            dcqp = yield from src.create_dc_qp()
            target = dst._new_target(user_key=1)
            other = dst._new_target(user_key=2)
            with pytest.raises(RemoteAccessError):
                yield from dcqp.read(cluster.machine(1), target.target_id,
                                     other.key, 4096)
            return True

        assert run(env, body())

    def test_reconnect_cost_only_on_target_switch(self, rig):
        env, cluster, fabric = rig
        src = fabric.nic_of(cluster.machine(0))
        dst = fabric.nic_of(cluster.machine(1))

        def timed_reads():
            dcqp = yield from src.create_dc_qp()
            target = dst._new_target(user_key=1)
            start = env.now
            yield from dcqp.read(cluster.machine(1), target.target_id,
                                 target.key, 64)
            first = env.now - start
            start = env.now
            yield from dcqp.read(cluster.machine(1), target.target_id,
                                 target.key, 64)
            second = env.now - start
            return first, second

        first, second = run(env, timed_reads())
        assert first == pytest.approx(second + params.DCT_RECONNECT_LATENCY)

    def test_dct_slower_than_rc_for_small_fast_for_pages(self, rig):
        env, cluster, fabric = rig
        src = fabric.nic_of(cluster.machine(0))
        dst = fabric.nic_of(cluster.machine(1))

        def body():
            rc = yield from src.create_rc_qp(cluster.machine(1))
            dcqp = yield from src.create_dc_qp()
            target = dst._new_target(user_key=1)
            # Warm the DC connection so we compare steady-state requests.
            yield from dcqp.read(cluster.machine(1), target.target_id,
                                 target.key, 16)

            start = env.now
            yield from rc.read(16)
            rc_small = env.now - start
            start = env.now
            yield from dcqp.read(cluster.machine(1), target.target_id,
                                 target.key, 16)
            dc_small = env.now - start

            start = env.now
            yield from rc.read(params.PAGE_SIZE)
            rc_page = env.now - start
            start = env.now
            yield from dcqp.read(cluster.machine(1), target.target_id,
                                 target.key, params.PAGE_SIZE)
            dc_page = env.now - start
            return rc_small, dc_small, rc_page, dc_page

        rc_small, dc_small, rc_page, dc_page = run(env, body())
        # Paper §4.2: DCT overhead is visible for tiny payloads but has
        # "little impact" at page granularity.
        assert dc_small > rc_small
        small_ratio = dc_small / rc_small
        page_ratio = dc_page / rc_page
        assert page_ratio < small_ratio
        assert page_ratio < 1.10


class TestDcTargetPool:
    def test_pooled_take_is_instant(self, rig):
        env, cluster, fabric = rig
        nic = fabric.nic_of(cluster.machine(0))

        def body():
            nic.target_pool.prefill_at_boot()
            start = env.now
            target = yield from nic.target_pool.take()
            return env.now - start, target

        elapsed, target = run(env, body())
        assert elapsed == 0.0
        assert target.active

    def test_empty_pool_pays_creation(self, rig):
        env, cluster, fabric = rig
        nic = fabric.nic_of(cluster.machine(0))

        def body():
            start = env.now
            yield from nic.target_pool.take()
            return env.now - start

        assert run(env, body()) == pytest.approx(params.DC_TARGET_CREATE_LATENCY)

    def test_pool_refills_in_background(self, rig):
        env, cluster, fabric = rig
        nic = fabric.nic_of(cluster.machine(0))

        def body():
            nic.target_pool.prefill_at_boot()
            before = nic.target_pool.available
            yield from nic.target_pool.take()
            drained = nic.target_pool.available
            yield env.timeout(2 * params.DC_TARGET_CREATE_LATENCY)
            refilled = nic.target_pool.available
            return before, drained, refilled

        before, drained, refilled = run(env, body())
        assert drained == before - 1
        assert refilled == before


class TestFootprints:
    def test_dc_target_storage_claim(self, rig):
        # §4.3: 1MB of memory stores >7,000 DC targets.
        assert params.MB // params.DC_TARGET_BYTES > 7000

    def test_rcqp_footprint_is_kb_scale(self, rig):
        assert params.RCQP_FOOTPRINT_BYTES >= 30 * params.DC_TARGET_BYTES


class TestRpc:
    def test_call_roundtrip(self, rig):
        env, cluster, fabric = rig
        rpc = RpcRuntime(env, fabric)
        target = cluster.machine(1)

        def handler(args):
            yield env.timeout(5.0)
            return args["x"] * 2, 128

        rpc.endpoint(target).register("double", handler)

        def body():
            value = yield from rpc.call(
                cluster.machine(0), target, "double", {"x": 21})
            return value, env.now

        value, elapsed = run(env, body())
        assert value == 42
        assert elapsed > 5.0  # handler time + wire time

    def test_unknown_method_raises(self, rig):
        env, cluster, fabric = rig
        rpc = RpcRuntime(env, fabric)

        def body():
            with pytest.raises(RpcError):
                yield from rpc.call(cluster.machine(0), cluster.machine(1),
                                    "nope", {})
            return True

        assert run(env, body())

    def test_workers_bound_concurrency(self, rig):
        env, cluster, fabric = rig
        rpc = RpcRuntime(env, fabric)
        target = cluster.machine(1)
        finish_times = []

        def slow_handler(args):
            yield env.timeout(100.0)
            return None, 64

        rpc.endpoint(target).register("slow", slow_handler)

        def caller():
            yield from rpc.call(cluster.machine(0), target, "slow", {})
            finish_times.append(env.now)

        for _ in range(4):
            env.process(caller())
        env.run()
        # Two workers (paper deploys two kernel threads): 4 calls finish in
        # two waves of two.
        assert len(finish_times) == 4
        assert finish_times[1] - finish_times[0] < 50.0
        assert finish_times[2] - finish_times[1] > 50.0

    def test_local_call_skips_wire(self, rig):
        env, cluster, fabric = rig
        rpc = RpcRuntime(env, fabric)
        machine = cluster.machine(0)

        def handler(args):
            yield env.timeout(1.0)
            return "ok", 8

        rpc.endpoint(machine).register("ping", handler)

        def body():
            start = env.now
            value = yield from rpc.call(machine, machine, "ping", {})
            return value, env.now - start

        value, elapsed = run(env, body())
        assert value == "ok"
        assert elapsed == pytest.approx(1.0)

    def test_duplicate_handler_rejected(self, rig):
        env, cluster, fabric = rig
        rpc = RpcRuntime(env, fabric)
        ep = rpc.endpoint(cluster.machine(0))

        def handler(args):
            yield env.timeout(0)
            return None, 0

        ep.register("m", handler)
        with pytest.raises(ValueError):
            ep.register("m", handler)
