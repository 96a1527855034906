"""Tests for the sequential remote-page prefetching extension."""

import pytest

from repro.cluster import Cluster
from repro.containers import ContainerRuntime, hello_world_image
from repro.core import MitosisDeployment
from repro.kernel import Kernel
from repro.rdma import RdmaFabric, RpcRuntime
from repro.sanitizers import audit_frame_refcounts
from repro.sim import Environment


def build_rig(prefetch_depth):
    env = Environment()
    cluster = Cluster(env, num_machines=2, num_racks=1)
    fabric = RdmaFabric(env, cluster)
    rpc = RpcRuntime(env, fabric)
    kernels = [Kernel(env, m) for m in cluster]
    runtimes = [ContainerRuntime(env, k) for k in kernels]
    deployment = MitosisDeployment(env, cluster, fabric, rpc, runtimes,
                                   prefetch_depth=prefetch_depth)
    return env, cluster, kernels, runtimes, deployment


def forked_child(env, cluster, runtimes, deployment):
    node0 = deployment.node(cluster.machine(0))
    node1 = deployment.node(cluster.machine(1))

    def body():
        parent = yield from runtimes[0].cold_start(hello_world_image())
        meta = yield from node0.fork_prepare(parent)
        child = yield from node1.fork_resume(meta)
        return parent, child

    return env.run(env.process(body()))


class TestPrefetch:
    def test_prefetch_pulls_following_pages(self):
        env, cluster, kernels, runtimes, deployment = build_rig(
            prefetch_depth=4)
        parent, child = forked_child(env, cluster, runtimes, deployment)
        heap = parent.task.address_space.vmas[3]

        def body():
            yield from kernels[1].touch(child.task, heap.start_vpn)
            # Let the async prefetch worker drain.
            yield env.timeout(1000.0)
            table = child.task.address_space.page_table
            return [table.entry(heap.start_vpn + i).present
                    for i in range(6)]

        present = env.run(env.process(body()))
        assert present[:5] == [True] * 5   # faulted page + 4 prefetched
        assert not present[5]
        node1 = deployment.node(cluster.machine(1))
        assert node1.pager.counters["prefetched_pages"] == 4

    def test_prefetched_pages_cost_no_fault_time(self):
        env, cluster, kernels, runtimes, deployment = build_rig(
            prefetch_depth=4)
        parent, child = forked_child(env, cluster, runtimes, deployment)
        heap = parent.task.address_space.vmas[3]

        def body():
            yield from kernels[1].touch(child.task, heap.start_vpn)
            yield env.timeout(1000.0)
            start = env.now
            yield from kernels[1].touch(child.task, heap.start_vpn + 1)
            return env.now - start

        assert env.run(env.process(body())) == 0.0

    def test_sequential_scan_faster_with_prefetch(self):
        def scan_time(depth):
            env, cluster, kernels, runtimes, deployment = build_rig(depth)
            parent, child = forked_child(env, cluster, runtimes, deployment)
            heap = parent.task.address_space.vmas[3]

            def body():
                start = env.now
                for i in range(64):
                    yield from kernels[1].touch(child.task,
                                                heap.start_vpn + i)
                return env.now - start

            return env.run(env.process(body()))

        without = scan_time(0)
        with_prefetch = scan_time(8)
        assert with_prefetch < 0.7 * without

    def test_depth_zero_never_prefetches(self):
        env, cluster, kernels, runtimes, deployment = build_rig(0)
        parent, child = forked_child(env, cluster, runtimes, deployment)
        heap = parent.task.address_space.vmas[3]

        def body():
            yield from kernels[1].touch(child.task, heap.start_vpn)
            yield env.timeout(1000.0)
            return child.task.address_space.resident_pages

        assert env.run(env.process(body())) == 1

    def test_prefetch_correct_content(self):
        env, cluster, kernels, runtimes, deployment = build_rig(4)
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))

        def body():
            parent = yield from runtimes[0].cold_start(hello_world_image())
            heap = parent.task.address_space.vmas[3]
            for i in range(5):
                yield from kernels[0].write_page(
                    parent.task, heap.start_vpn + i, "v%d" % i)
            meta = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta)
            yield from kernels[1].touch(child.task, heap.start_vpn)
            yield env.timeout(1000.0)
            contents = []
            for i in range(5):
                contents.append((yield from kernels[1].touch(
                    child.task, heap.start_vpn + i)))
            return contents

        assert env.run(env.process(body())) == ["v%d" % i for i in range(5)]

    def test_prefetch_landing_after_child_exit_leaks_no_frame(self):
        # The touch returns with the prefetch window still in flight; the
        # child exits before it lands, so each late install finds a dead
        # task and must map nothing into its swept page table.
        env, cluster, kernels, runtimes, deployment = build_rig(
            prefetch_depth=4)
        parent, child = forked_child(env, cluster, runtimes, deployment)
        heap = parent.task.address_space.vmas[3]

        def body():
            yield from kernels[1].touch(child.task, heap.start_vpn)
            runtimes[1].destroy(child)

        env.run(env.process(body()))
        env.run()
        assert audit_frame_refcounts(kernels) == []
        assert kernels[1].frames.allocated == 0
