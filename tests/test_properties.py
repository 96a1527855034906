"""Property-based tests (hypothesis) on core data structures & invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import params
from repro.cluster import Cluster, MemoryAccount, OutOfMemoryError
from repro.kernel import Kernel, KernelError, VmaKind
from repro.metrics import stats
from repro.sim import Environment, SeededStreams

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestStatsProperties:
    @SETTINGS
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=200))
    def test_percentile_bounded_by_extremes(self, values):
        for pct in (0, 25, 50, 75, 99, 100):
            p = stats.percentile(values, pct)
            assert min(values) <= p <= max(values)

    @SETTINGS
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=200))
    def test_percentile_monotone_in_pct(self, values):
        points = [stats.percentile(values, pct) for pct in (0, 25, 50, 75, 100)]
        assert points == sorted(points)

    @SETTINGS
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    def test_p0_and_p100_are_extremes(self, values):
        assert stats.percentile(values, 0) == min(values)
        assert stats.percentile(values, 100) == max(values)

    @SETTINGS
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=300),
           st.integers(min_value=1, max_value=50))
    def test_cdf_monotone_and_complete(self, values, num_points):
        curve = stats.cdf_points(values, num_points)
        xs = [x for x, _ in curve]
        fs = [f for _, f in curve]
        assert xs == sorted(xs)
        assert fs == sorted(fs)
        assert abs(fs[-1] - 1.0) < 1e-9


class TestMemoryAccountProperties:
    @SETTINGS
    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=1, max_value=1000)),
                    max_size=100))
    def test_usage_never_exceeds_capacity_or_underflows(self, ops):
        account = MemoryAccount(capacity=10_000)
        outstanding = 0
        for is_alloc, amount in ops:
            if is_alloc:
                try:
                    account.alloc(amount)
                    outstanding += amount
                except OutOfMemoryError:
                    assert outstanding + amount > 10_000
            else:
                if amount <= outstanding:
                    account.free(amount)
                    outstanding -= amount
                else:
                    with pytest.raises(ValueError):
                        account.free(amount)
            assert account.used == outstanding
            assert 0 <= account.used <= account.capacity
            assert account.peak >= account.used


class TestFrameRefcountProperties:
    @SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1,
                    max_size=60))
    def test_refcounting_conserves_memory(self, ops):
        env = Environment()
        cluster = Cluster(env, num_machines=1)
        kernel = Kernel(env, cluster.machine(0))
        live = []
        for op in ops:
            if op == 0 or not live:
                live.append(kernel.frames.alloc())
            elif op == 1:
                kernel.frames.ref(live[-1])
                live.append(live[-1])
            else:
                frame = live.pop()
                kernel.frames.unref(frame)
        # Outstanding references == live frames' total refcount.
        expected = len(live)
        actual = sum(f.refcount for f in {id(f): f for f in live}.values())
        assert actual == expected
        assert cluster.machine(0).memory.used == (
            len({id(f) for f in live}) * params.PAGE_SIZE)


class TestCowForkProperties:
    @SETTINGS
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 7),
                              st.integers(0, 999)),
                    min_size=1, max_size=40))
    def test_parent_child_isolation_matches_model(self, writes):
        """Random interleaved writes after fork: contents must match a
        plain dict model (full isolation, lazily copied)."""
        env = Environment()
        cluster = Cluster(env, num_machines=1)
        kernel = Kernel(env, cluster.machine(0))
        parent = kernel.create_task("p")
        vma = parent.address_space.add_vma(8, VmaKind.HEAP)
        kernel.warm(parent)

        model = {}
        for vpn in vma.vpns():
            pte = parent.address_space.page_table.entry(vpn)
            model[("p", vpn)] = pte.frame.content
            model[("c", vpn)] = pte.frame.content

        def body():
            child = yield from kernel.fork_local(parent)
            for to_child, offset, value in writes:
                task = child if to_child else parent
                tag = "c" if to_child else "p"
                vpn = vma.start_vpn + offset
                yield from kernel.write_page(task, vpn, value)
                model[(tag, vpn)] = value
            for vpn in vma.vpns():
                pc = yield from kernel.touch(parent, vpn)
                cc = yield from kernel.touch(child, vpn)
                assert pc == model[("p", vpn)]
                assert cc == model[("c", vpn)]
            return True

        assert env.run(env.process(body()))


class TestPteOwnerBits:
    @SETTINGS
    @given(st.integers(min_value=-5, max_value=30))
    def test_owner_index_range_enforced(self, index):
        from repro.kernel import Pte
        pte = Pte()
        if 0 <= index <= params.MAX_FORK_HOPS:
            pte.set_owner_index(index)
            assert pte.owner_index == index
        else:
            with pytest.raises(KernelError):
                pte.set_owner_index(index)


class TestSimDeterminism:
    @SETTINGS
    @given(st.integers(min_value=0, max_value=10_000))
    def test_same_seed_same_trace(self, seed):
        def draw(s):
            streams = SeededStreams(seed=s)
            return [streams.exponential("a", 5.0) for _ in range(5)] + \
                   [streams.uniform("b", 0, 1) for _ in range(5)]

        assert draw(seed) == draw(seed)

    @SETTINGS
    @given(st.lists(st.floats(min_value=0.01, max_value=1000.0),
                    min_size=1, max_size=30))
    def test_event_order_is_time_order(self, delays):
        env = Environment()
        fired = []

        def waiter(d):
            yield env.timeout(d)
            fired.append(d)

        for d in delays:
            env.process(waiter(d))
        env.run()
        assert fired == sorted(fired)


class TestAccessControlInvariant:
    @SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                    max_size=20),
           st.integers(min_value=0, max_value=7))
    def test_successful_remote_read_implies_live_frame(self, reclaims, probe):
        """The passive model's safety property: whenever a child's RDMA
        read is *admitted*, the backing shadow frame is still live; reads
        of reclaimed pages always divert to the fallback path, and every
        read returns the pre-reclaim content."""
        from repro.containers import ContainerRuntime, hello_world_image
        from repro.core import MitosisDeployment
        from repro.rdma import RdmaFabric, RpcRuntime

        env = Environment()
        cluster = Cluster(env, num_machines=2, num_racks=1)
        fabric = RdmaFabric(env, cluster)
        rpc = RpcRuntime(env, fabric)
        kernels = [Kernel(env, m) for m in cluster]
        runtimes = [ContainerRuntime(env, k) for k in kernels]
        deployment = MitosisDeployment(env, cluster, fabric, rpc, runtimes)
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))

        def body():
            parent = yield from runtimes[0].cold_start(hello_world_image())
            heap = parent.task.address_space.vmas[3]
            expected = {}
            for offset in range(8):
                vpn = heap.start_vpn + offset
                content = yield from kernels[0].write_page(
                    parent.task, vpn, "v%d" % offset)
                expected[vpn] = content
            meta = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta)
            _, shadow = node0.service.lookup(meta.handler_id, meta.auth_key)
            reclaimed = set()
            for offset in reclaims:
                vpn = heap.start_vpn + offset
                yield from kernels[0].reclaim(shadow, [vpn])
                reclaimed.add(vpn)
            probe_vpn = heap.start_vpn + probe
            content = yield from kernels[1].touch(child.task, probe_vpn)
            assert content == expected[probe_vpn]
            counters = node1.pager.counters.as_dict()
            heap_reclaimed = bool(reclaimed)
            if heap_reclaimed:
                # Any read in the reclaimed VMA must have taken fallback.
                assert counters.get("fallback_rpcs", 0) >= 1
            return True

        assert env.run(env.process(body()))


class TestMultiHopModelProperty:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 99)),
                    min_size=0, max_size=6),
           st.integers(min_value=2, max_value=4))
    def test_chain_reads_match_write_model(self, writes, hops):
        """Fork a chain of `hops` machines; at each hop apply the writes
        assigned to it; the final descendant must observe, for every page,
        the value written by the *nearest* elder that wrote it."""
        from repro.containers import ContainerRuntime, hello_world_image
        from repro.core import MitosisDeployment
        from repro.rdma import RdmaFabric, RpcRuntime

        env = Environment()
        cluster = Cluster(env, num_machines=hops + 1, num_racks=1)
        fabric = RdmaFabric(env, cluster)
        rpc = RpcRuntime(env, fabric)
        kernels = [Kernel(env, m) for m in cluster]
        runtimes = [ContainerRuntime(env, k) for k in kernels]
        deployment = MitosisDeployment(env, cluster, fabric, rpc, runtimes)

        def body():
            container = yield from runtimes[0].cold_start(
                hello_world_image())
            heap = container.task.address_space.vmas[3]
            model = {}
            for hop in range(hops):
                kernel = kernels[hop]
                for w_hop, offset in writes:
                    if w_hop == hop:
                        value = "h%d-o%d" % (hop, offset)
                        yield from kernel.write_page(
                            container.task, heap.start_vpn + offset, value)
                        model[offset] = value
                if hop < hops - 1:
                    node = deployment.node(cluster.machine(hop))
                    meta = yield from node.fork_prepare(container)
                    next_node = deployment.node(cluster.machine(hop + 1))
                    container = yield from next_node.fork_resume(meta)
            last_kernel = kernels[hops - 1]
            for offset, expected in model.items():
                content = yield from last_kernel.touch(
                    container.task, heap.start_vpn + offset)
                assert content == expected
            return True

        assert env.run(env.process(body()))
