"""Tests for the MITOSIS core: prepare/resume, paging, access control."""

import pytest

from repro import params
from repro.cluster import Cluster
from repro.containers import ContainerRuntime, hello_world_image
from repro.core import ForkDepthExceeded, MitosisDeployment
from repro.core.descriptor import PteSnapshot, SnapshotMap
from repro.core.mitosis import _pte_snapshot
from repro.kernel import Kernel, KernelError, PageTable, TaskExited
from repro.rdma import RdmaFabric, RpcError, RpcRuntime
from repro.sanitizers import audit_frame_refcounts
from repro.sim import Environment
from repro.trace import Tracer
from repro.workloads import execute, tc0_profile


def build_rig(num_machines=4, enable_sharing=True, transport="dct"):
    env = Environment()
    cluster = Cluster(env, num_machines=num_machines, num_racks=1)
    fabric = RdmaFabric(env, cluster)
    rpc = RpcRuntime(env, fabric)
    kernels = [Kernel(env, m) for m in cluster]
    runtimes = [ContainerRuntime(env, k) for k in kernels]
    deployment = MitosisDeployment(env, cluster, fabric, rpc, runtimes,
                                   enable_sharing=enable_sharing,
                                   transport=transport)
    return env, cluster, runtimes, deployment


@pytest.fixture
def rig():
    return build_rig()


def run(env, gen):
    return env.run(env.process(gen))


def start_parent(env, runtime, image=None):
    image = image or hello_world_image()

    def body():
        return (yield from runtime.cold_start(image))

    return run(env, body())


class TestForkPrepare:
    def test_returns_compact_meta(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node = deployment.node(cluster.machine(0))

        def body():
            return (yield from node.fork_prepare(parent))

        meta = run(env, body())
        assert meta.machine_id == 0
        assert meta.NBYTES < 100  # "a few bytes" (§4.1)

    def test_descriptor_is_kb_scale(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node = deployment.node(cluster.machine(0))

        def body():
            meta = yield from node.fork_prepare(parent)
            descriptor, _ = node.service.lookup(meta.handler_id, meta.auth_key)
            return descriptor

        descriptor = run(env, body())
        # KB-scale vs the 10.2MB image file (orders of magnitude smaller).
        assert descriptor.nbytes < parent.image.image_file_bytes / 100
        assert descriptor.nbytes > params.KB

    def test_prepare_much_faster_than_checkpoint(self, rig):
        env, cluster, runtimes, deployment = rig
        from repro.criu import checkpoint
        parent = start_parent(env, runtimes[0])
        node = deployment.node(cluster.machine(0))

        def timed_prepare():
            start = env.now
            yield from node.fork_prepare(parent)
            return env.now - start

        def timed_checkpoint():
            start = env.now
            yield from checkpoint(env, parent, "ck")
            return env.now - start

        prepare = run(env, timed_prepare())
        ck = run(env, timed_checkpoint())
        # Fig. 14a: 2.8ms descriptor dump vs 17.24ms checkpoint for TC0.
        assert prepare < ck / 3
        assert 1 * params.MS < prepare < 5 * params.MS

    def test_one_dc_target_per_vma(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node = deployment.node(cluster.machine(0))

        def body():
            meta = yield from node.fork_prepare(parent)
            descriptor, shadow = node.service.lookup(
                meta.handler_id, meta.auth_key)
            return descriptor, shadow

        descriptor, shadow = run(env, body())
        assert len(descriptor.vma_descriptors) == len(
            shadow.address_space.vmas)
        target_ids = {vd.dct_target_id for vd in descriptor.vma_descriptors}
        assert len(target_ids) == len(descriptor.vma_descriptors)

    def test_shadow_shares_frames_cow(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node = deployment.node(cluster.machine(0))
        used_before = cluster.machine(0).memory.used

        def body():
            yield from node.fork_prepare(parent)

        run(env, body())
        # Shadow adds descriptor bytes, not another container's pages.
        growth = cluster.machine(0).memory.used - used_before
        assert growth < parent.image.layout.total_bytes / 100

    def test_parent_keeps_running_writes_isolated(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node = deployment.node(cluster.machine(0))
        kernel = runtimes[0].kernel
        heap_vpn = parent.task.address_space.vmas[3].start_vpn

        def body():
            yield from kernel.write_page(parent.task, heap_vpn, "before")
            meta = yield from node.fork_prepare(parent)
            yield from kernel.write_page(parent.task, heap_vpn, "after")
            _, shadow = node.service.lookup(meta.handler_id, meta.auth_key)
            shadow_content = shadow.address_space.page_table.entry(
                heap_vpn).frame.content
            return shadow_content

        assert run(env, body()) == "before"


class TestForkResume:
    def test_resume_rebuilds_execution_state(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        parent.task.registers.pc = 0xBEEF
        parent.task.open_fd("file", "/tmp/x")
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))

        def body():
            meta = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta)
            return child

        child = run(env, body())
        assert child.machine.machine_id == 1
        assert child.task.registers.pc == 0xBEEF
        assert len(child.task.fd_table) == 1
        assert len(child.task.address_space.vmas) == 5
        assert child.state == "running"

    def test_resume_latency_around_11ms(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))

        def body():
            meta = yield from node0.fork_prepare(parent)
            start = env.now
            yield from node1.fork_resume(meta)
            return env.now - start

        elapsed = run(env, body())
        # Table 1: MITOSIS remote warm start = 11ms.
        assert 9 * params.MS < elapsed < 14 * params.MS

    def test_child_starts_with_zero_resident_pages(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))

        def body():
            meta = yield from node0.fork_prepare(parent)
            return (yield from node1.fork_resume(meta))

        child = run(env, body())
        assert child.task.address_space.resident_pages == 0
        assert len(child.task.address_space.page_table.remote_vpns()) > 0

    def test_bad_auth_key_rejected(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))

        def body():
            meta = yield from node0.fork_prepare(parent)
            meta.auth_key += 1
            with pytest.raises(RpcError):
                yield from node1.fork_resume(meta)
            return True

        assert run(env, body())

    def test_child_reads_parent_pages_on_demand(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        kernel0 = runtimes[0].kernel
        kernel1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        heap_vpn = parent.task.address_space.vmas[3].start_vpn

        def body():
            yield from kernel0.write_page(parent.task, heap_vpn, "shared-42")
            meta = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta)
            content = yield from kernel1.touch(child.task, heap_vpn)
            return content, child.task.address_space.resident_pages

        content, resident = run(env, body())
        assert content == "shared-42"
        assert resident == 1

    def test_execute_and_touch_hand_the_fault_handler_their_pte(
            self, rig, monkeypatch):
        """A remote fault looks its snapshot page up once: ``execute``
        and ``Kernel.touch`` pass the PTE they read to ``handle_fault``,
        which calls ``PageTable.ensure`` only for the demand-zero pages
        no caller holds a PTE for."""
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        kernel1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        code = parent.task.address_space.vmas[0]
        ensured = []
        ensure = PageTable.ensure

        def counting_ensure(table, vpn):
            ensured.append(vpn)
            return ensure(table, vpn)

        def body():
            meta = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta)
            monkeypatch.setattr(PageTable, "ensure", counting_ensure)
            yield from execute(env, child, tc0_profile())
            # The plan touches 60% of the code VMA, not its last page.
            yield from kernel1.touch(child.task, code.end_vpn - 1)
            return child

        child = run(env, body())
        snapshot = child.task.address_space.page_table.snapshot
        assert kernel1.counters["fault_remote"] > 0
        assert ensured and [vpn for vpn in ensured if vpn in snapshot] == []
        assert len(ensured) == kernel1.counters["fault_demand_zero"]

    def test_stack_growth_is_local(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        kernel1 = runtimes[1].kernel

        def body():
            meta = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta)
            stack = child.task.address_space.vmas[-1]
            child.task.address_space.grow(stack, 4)
            content = yield from kernel1.touch(
                child.task, stack.end_vpn - 1, write=True)
            return content

        content = run(env, body())
        assert "zero" in content  # demand-zero, no network involved
        node1 = deployment.node(cluster.machine(1))
        assert node1.pager.counters["rdma_reads"] == 0

    def test_untouched_child_teardown_materializes_nothing(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        kernels = [runtime.kernel for runtime in runtimes]

        def body():
            meta = yield from node0.fork_prepare(parent)
            return (yield from node1.fork_resume(meta))

        child = run(env, body())
        table = child.task.address_space.page_table
        pages = len(table)
        assert pages > 0
        assert audit_frame_refcounts(kernels) == []
        assert list(table.materialized()) == []  # the audit only reads
        runtimes[1].destroy(child)
        assert list(table.materialized()) == []
        assert len(table) == pages
        assert audit_frame_refcounts(kernels) == []

    def test_local_resume_also_works(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node0 = deployment.node(cluster.machine(0))

        def body():
            meta = yield from node0.fork_prepare(parent)
            return (yield from node0.fork_resume(meta))

        child = run(env, body())
        assert child.machine.machine_id == 0


class TestPassiveAccessControl:
    def test_reclaim_revokes_then_fallback_serves(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        kernel0 = runtimes[0].kernel
        kernel1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        heap_vpn = parent.task.address_space.vmas[3].start_vpn

        def body():
            yield from kernel0.write_page(parent.task, heap_vpn, "precious")
            meta = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta)
            _, shadow = node0.service.lookup(meta.handler_id, meta.auth_key)
            # Parent OS reclaims the shadow's page without telling anyone.
            yield from kernel0.reclaim(shadow, [heap_vpn])
            content = yield from kernel1.touch(child.task, heap_vpn)
            return content

        content = run(env, body())
        assert content == "precious"
        node1 = deployment.node(cluster.machine(1))
        assert node1.pager.counters["revocation_fallbacks"] == 1
        assert node1.pager.counters["fallback_rpcs"] == 1

    def test_shadow_keeps_a_swapped_page_the_parent_swaps_back_in(self, rig):
        """fork_prepare forks the shadow from a parent whose page sits in
        swap: the parent's swap-in must not take the shadow's copy, which
        the fallback daemon serves to the child."""
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        kernel0 = runtimes[0].kernel
        kernel1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        heap_vpn = parent.task.address_space.vmas[3].start_vpn

        def body():
            yield from kernel0.write_page(parent.task, heap_vpn, "precious")
            yield from kernel0.reclaim(parent.task, [heap_vpn])
            meta = yield from node0.fork_prepare(parent)
            parent_sees = yield from kernel0.touch(parent.task, heap_vpn)
            child = yield from node1.fork_resume(meta)
            child_sees = yield from kernel1.touch(child.task, heap_vpn)
            return parent_sees, child_sees

        assert run(env, body()) == ("precious", "precious")
        assert kernel1.counters["fault_remote_rpc"] == 1
        assert node1.pager.counters["fallback_rpcs"] == 1

    def test_revocation_is_per_vma(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        kernel0 = runtimes[0].kernel
        kernel1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        heap = parent.task.address_space.vmas[3]
        code = parent.task.address_space.vmas[0]

        def body():
            meta = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta)
            _, shadow = node0.service.lookup(meta.handler_id, meta.auth_key)
            yield from kernel0.reclaim(shadow, [heap.start_vpn])
            # The heap VMA's target is gone; the code VMA still flies RDMA.
            yield from kernel1.touch(child.task, code.start_vpn)
            yield from kernel1.touch(child.task, heap.start_vpn + 1)
            return node1.pager.counters.as_dict()

        counters = run(env, body())
        assert counters["rdma_reads"] == 1
        assert counters["revocation_fallbacks"] == 1

    def test_fallback_slower_than_rdma(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        kernel0 = runtimes[0].kernel
        kernel1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        heap = parent.task.address_space.vmas[3]

        def body():
            meta = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta)
            start = env.now
            yield from kernel1.touch(child.task, heap.start_vpn)
            rdma_time = env.now - start
            _, shadow = node0.service.lookup(meta.handler_id, meta.auth_key)
            yield from kernel0.reclaim(shadow, [heap.start_vpn + 1])
            start = env.now
            yield from kernel1.touch(child.task, heap.start_vpn + 1)
            fallback_time = env.now - start
            return rdma_time, fallback_time

        rdma_time, fallback_time = run(env, body())
        assert fallback_time > 2 * rdma_time

    def test_no_revocation_without_reclaim(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        kernel1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        heap = parent.task.address_space.vmas[3]

        def body():
            meta = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta)
            for i in range(8):
                yield from kernel1.touch(child.task, heap.start_vpn + i)
            return node1.pager.counters.as_dict()

        counters = run(env, body())
        assert counters["rdma_reads"] == 8
        assert counters.get("fallback_rpcs", 0) == 0

    @staticmethod
    def _reclaim_racing_a_read(traced):
        """The parent reclaims a page after the child's READ of it was
        admitted and before the READ completes.  Returns what the child
        read, the final time, and the pager's and both NICs' counters.
        """
        env, cluster, runtimes, deployment = build_rig()
        tracer = Tracer(env) if traced else None
        parent = start_parent(env, runtimes[0])
        kernel0 = runtimes[0].kernel
        kernel1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        heap_vpn = parent.task.address_space.vmas[3].start_vpn

        def fork():
            yield from kernel0.write_page(parent.task, heap_vpn, "precious")
            meta = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta)
            return meta, child

        meta, child = run(env, fork())
        _, shadow = node0.service.lookup(meta.handler_id, meta.auth_key)
        # Every DCQP reconnects, so the READ is admitted this long after
        # the fault begins; it completes after its payload and response.
        for qp in node1.net_daemon._dcqps:
            qp.last_target_id = None
        admitted = (params.PAGE_FAULT_OVERHEAD + params.DCT_RECONNECT_LATENCY
                    + params.RDMA_READ_LATENCY / 2.0
                    + params.DCT_REQUEST_OVERHEAD)

        def reclaim_now(_event):
            # Kernel.reclaim without its swap-out latency: revoke the
            # VMA's target through the reclaim hooks, then swap out.
            space = shadow.address_space
            pte = space.page_table.entry(heap_vpn)
            for hook in kernel0.reclaim_hooks:
                hook(shadow, space.find_vma(heap_vpn), heap_vpn, pte)
            kernel0.frames.unref(
                pte.swap_out(kernel0.swap.put(pte.frame.content)))

        def fault():
            started = env.now
            env.timeout(admitted + params.RDMA_READ_LATENCY / 4.0
                        ).callbacks.append(reclaim_now)
            content = yield from kernel1.touch(child.task, heap_vpn)
            return content, env.now - started

        content, elapsed = run(env, fault())
        if tracer is not None:
            served = [span.attrs.get("served_from") for span in tracer.spans
                      if span.name == "daemon.fallback_page"]
            assert served == ["swap"]
        return (content, elapsed, env.now, node1.pager.counters.as_dict(),
                [cluster.machine(m).nic.counters.as_dict() for m in (0, 1)])

    def test_reclaim_racing_an_admitted_read_falls_back_to_swap(self):
        """The frame vanishes mid-transfer: the child takes the race
        fallback and reads the parent's page from swap, and the inline
        read (untraced) and the general path (traced) agree."""
        untraced = self._reclaim_racing_a_read(traced=False)
        content, elapsed, _, counters, _ = untraced
        assert content == "precious"
        assert elapsed > params.FALLBACK_STORAGE_PAGE_LATENCY  # from swap
        assert counters["race_fallbacks"] == 1
        assert counters["fallback_rpcs"] == 1
        assert counters.get("rdma_reads", 0) == 0
        assert counters.get("revocation_fallbacks", 0) == 0
        assert self._reclaim_racing_a_read(traced=True) == untraced

    def test_fallback_rejects_a_vpn_outside_the_shadows_vmas(self, rig):
        """The daemon serves only pages some VMA of the shadow covers: a
        vpn outside them is answered with an RpcError at once, with no
        page or storage latency charged."""
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node0 = deployment.node(cluster.machine(0))
        space = parent.task.address_space
        heap = space.vmas[3]
        untouched = heap.end_vpn
        space.grow(heap, 1)  # a heap page nobody has touched
        outside = 0x7FFFF
        assert space.find_vma(outside) is None
        meta = run(env, node0.fork_prepare(parent))

        def fallback(vpn):
            started = env.now
            try:
                answer = yield from deployment.rpc.call(
                    cluster.machine(1), cluster.machine(0),
                    "mitosis.fallback_page",
                    {"handler_id": meta.handler_id,
                     "auth_key": meta.auth_key, "vpn": vpn},
                    request_bytes=params.FALLBACK_RPC_REQUEST_BYTES)
            except RpcError as exc:
                answer = str(exc)
            return answer, env.now - started

        served, served_elapsed = run(env, fallback(untouched))
        assert served == "m0/storage/v%d" % untouched
        rejected, rejected_elapsed = run(env, fallback(outside))
        assert rejected == "vpn %d outside the shadow's VMAs" % outside
        assert served_elapsed - rejected_elapsed > (
            params.FALLBACK_RPC_PAGE_LATENCY
            + params.FALLBACK_STORAGE_PAGE_LATENCY)


class TestPageSharing:
    def test_second_child_hits_local_cache(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        kernel1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        lib = parent.task.address_space.vmas[1]

        def body():
            meta = yield from node0.fork_prepare(parent)
            first = yield from node1.fork_resume(meta)
            second = yield from node1.fork_resume(meta)
            yield from kernel1.touch(first.task, lib.start_vpn)
            yield from kernel1.touch(second.task, lib.start_vpn)
            return node1.pager.counters.as_dict(), first, second

        counters, first, second = run(env, body())
        assert counters["rdma_reads"] == 1
        assert counters["shared_hits"] == 1
        # Both children share one frame copy-on-write.
        f1 = first.task.address_space.page_table.entry(lib.start_vpn).frame
        f2 = second.task.address_space.page_table.entry(lib.start_vpn).frame
        assert f1 is f2
        assert f1.refcount == 2

    def test_shared_write_breaks_cow(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        kernel1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        heap = parent.task.address_space.vmas[3]

        def body():
            meta = yield from node0.fork_prepare(parent)
            first = yield from node1.fork_resume(meta)
            second = yield from node1.fork_resume(meta)
            yield from kernel1.touch(first.task, heap.start_vpn)
            yield from kernel1.write_page(second.task, heap.start_vpn, "mine")
            c1 = yield from kernel1.touch(first.task, heap.start_vpn)
            c2 = yield from kernel1.touch(second.task, heap.start_vpn)
            return c1, c2

        c1, c2 = run(env, body())
        assert c2 == "mine"
        assert c1 != "mine"

    def test_cache_drops_dead_frames_of_retired_descriptors(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        kernel1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        heap = parent.task.address_space.vmas[3]
        pages = 8

        def body():
            sizes = []
            for _ in range(24):
                meta = yield from node0.fork_prepare(parent)
                child = yield from node1.fork_resume(meta)
                for offset in range(pages):
                    yield from kernel1.touch(child.task,
                                             heap.start_vpn + offset)
                runtimes[1].destroy(child)
                node0.retire_descriptor(meta)
                sizes.append(len(node1.pager.cache))
            return sizes

        sizes = run(env, body())
        # Each round's frames die with its child and its descriptor is
        # never looked up again: the cache is bounded by the live frames
        # of one round, not by the number of rounds.
        assert max(sizes) <= 2 * pages
        assert node1.pager.counters["rdma_reads"] == 24 * pages

    def test_sharing_disabled_reads_remote_every_time(self):
        env, cluster, runtimes, deployment = build_rig(enable_sharing=False)
        parent = start_parent(env, runtimes[0])
        kernel1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        lib = parent.task.address_space.vmas[1]

        def body():
            meta = yield from node0.fork_prepare(parent)
            first = yield from node1.fork_resume(meta)
            second = yield from node1.fork_resume(meta)
            yield from kernel1.touch(first.task, lib.start_vpn)
            yield from kernel1.touch(second.task, lib.start_vpn)
            return node1.pager.counters.as_dict()

        counters = run(env, body())
        assert counters["rdma_reads"] == 2
        assert counters.get("shared_hits", 0) == 0


    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: the fetcher maps the frame it caches writable, "
        "so its write lands in the frame a co-located sibling shares"))
    def test_cofetched_write_stays_invisible_to_a_sibling(self, rig):
        """A fork is a snapshot: what one child writes after the fork,
        its sibling must not read.  With sharing off the sibling reads
        the parent's value; with sharing on it reads the write."""
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        kernel0, kernel1 = runtimes[0].kernel, runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        vpn = parent.task.address_space.vmas[3].start_vpn

        def body():
            yield from kernel0.write_page(parent.task, vpn, "A")
            meta = yield from node0.fork_prepare(parent)
            first = yield from node1.fork_resume(meta)
            second = yield from node1.fork_resume(meta)
            yield from kernel1.touch(first.task, vpn)
            yield from kernel1.write_page(first.task, vpn, "B")
            return (yield from kernel1.touch(second.task, vpn))

        assert run(env, body()) == "A"


class TestMultiHop:
    def test_grandchild_pulls_from_correct_elders(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        k0, k1, k2 = (runtimes[i].kernel for i in range(3))
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        node2 = deployment.node(cluster.machine(2))
        heap = parent.task.address_space.vmas[3]
        data0_vpn = heap.start_vpn       # written by func0 (machine 0)
        data1_vpn = heap.start_vpn + 1   # written by func1 (machine 1)

        def body():
            yield from k0.write_page(parent.task, data0_vpn, "data[0]")
            meta0 = yield from node0.fork_prepare(parent)
            func1 = yield from node1.fork_resume(meta0)
            yield from k1.write_page(func1.task, data1_vpn, "data[1]")
            meta1 = yield from node1.fork_prepare(func1)
            func2 = yield from node2.fork_resume(meta1)
            d1 = yield from k2.touch(func2.task, data1_vpn)
            d0 = yield from k2.touch(func2.task, data0_vpn)
            return d0, d1, func2

        d0, d1, func2 = run(env, body())
        assert d0 == "data[0]"  # pulled from machine 0 (two hops up)
        assert d1 == "data[1]"  # pulled from machine 1 (one hop up)
        assert len(func2.task.predecessors) == 2

    def test_chain_tail_faults_in_ancestor_pages_building_no_entries(
            self, rig, monkeypatch):
        """The tail of a 3-hop chain reads each page from the hop that
        wrote it, and its faults ask the derived snapshot maps for
        ``(remote_pfn, owner_hop)`` only: no PteSnapshot is built."""
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        kernels = [runtimes[i].kernel for i in range(4)]
        nodes = [deployment.node(cluster.machine(i)) for i in range(4)]
        heap = parent.task.address_space.vmas[3]
        lib = parent.task.address_space.vmas[1]

        def chain():
            container = parent
            for hop in range(3):
                yield from kernels[hop].write_page(
                    container.task, heap.start_vpn + hop, "data[%d]" % hop)
                meta = yield from nodes[hop].fork_prepare(container)
                container = yield from nodes[hop + 1].fork_resume(meta)
            return container

        tail = run(env, chain())
        assert len(tail.task.predecessors) == 3
        built = []
        original = PteSnapshot.__init__

        def counting(snap, *args, **kwargs):
            built.append(args)
            original(snap, *args, **kwargs)

        monkeypatch.setattr(PteSnapshot, "__init__", counting)

        def read():
            pages = [heap.start_vpn + hop for hop in range(3)]
            pages.append(lib.start_vpn)
            contents = []
            for vpn in pages:
                contents.append((yield from kernels[3].touch(tail.task, vpn)))
            return contents

        contents = run(env, read())
        assert contents[:3] == ["data[0]", "data[1]", "data[2]"]
        owners = [tail.task.address_space.page_table.entry(
            heap.start_vpn + hop) for hop in range(3)]
        assert all(pte.present and not pte.remote for pte in owners)
        assert built == []

    def test_hop_one_prepare_does_not_scan_its_elder_map(self, rig,
                                                         monkeypatch):
        """A first-generation map carries its max owner hop, so a
        resumed child's fork_prepare never walks the map it derives
        from (the seed's 1,330 entries for TC0)."""
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0], image=tc0_profile().image)
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))

        def resume():
            meta = yield from node0.fork_prepare(parent)
            return (yield from node1.fork_resume(meta))

        child = run(env, resume())
        elder = child.task.address_space.page_table.snapshot
        assert type(elder) is SnapshotMap and len(elder) == 1330

        def no_scan(self, *args):
            raise AssertionError("scanned the elder snapshot map")

        for method in ("values", "items", "keys", "__iter__"):
            monkeypatch.setattr(SnapshotMap, method, no_scan)
        meta = run(env, node1.fork_prepare(child))
        monkeypatch.undo()
        descriptor, _ = node1.service.lookup(meta.handler_id, meta.auth_key)
        assert descriptor.pte_snapshots.max_hop == 1

    def test_owner_bits_encode_hops(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        k1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        node2 = deployment.node(cluster.machine(2))
        heap = parent.task.address_space.vmas[3]

        def body():
            meta0 = yield from node0.fork_prepare(parent)
            func1 = yield from node1.fork_resume(meta0)
            # func1 touches one page locally; the rest stay on machine 0.
            yield from k1.touch(func1.task, heap.start_vpn)
            meta1 = yield from node1.fork_prepare(func1)
            func2 = yield from node2.fork_resume(meta1)
            pt = func2.task.address_space.page_table
            touched = pt.entry(heap.start_vpn)
            untouched = pt.entry(heap.start_vpn + 1)
            return touched.owner_index, untouched.owner_index

        touched_owner, untouched_owner = run(env, body())
        assert touched_owner == 0     # immediate parent (machine 1)
        assert untouched_owner == 1   # grandparent (machine 0)

    @staticmethod
    def _listed(node, meta):
        """``meta``'s descriptor as a (vpn, remote_pfn, owner_hop) list."""
        descriptor, _ = node.service.lookup(meta.handler_id, meta.auth_key)
        return [(vpn, snap.remote_pfn, snap.owner_hop)
                for vpn, snap in descriptor.pte_snapshots.items()]

    @classmethod
    def _multi_hop_snapshots(cls, eager):
        """Three hops m0 -> m1 -> m2, each resumed task partly touched
        before its fork_prepare; m0 reclaims one page first, so every
        descriptor carries a no-PA entry for it.

        Returns the snapshot lists (:meth:`_listed`) of the child's
        descriptor, of a second, fan-out descriptor of the same child,
        and of the grandchild's descriptor.  ``eager`` swaps each resumed
        task's overlay for the table fork_resume used to build.
        """
        env, cluster, runtimes, deployment = build_rig()
        parent = start_parent(env, runtimes[0])
        k0, k1, k2 = (runtimes[i].kernel for i in range(3))
        node0, node1, node2 = (deployment.node(cluster.machine(i))
                               for i in range(3))
        heap = parent.task.address_space.vmas[3]

        def resume(node, meta, parent_node):
            container = yield from node.fork_resume(meta)
            if eager:
                descriptor, _ = parent_node.service.lookup(meta.handler_id,
                                                           meta.auth_key)
                table = PageTable()
                for vpn, snap in descriptor.pte_snapshots.items():
                    table.ensure(vpn).mark_remote(
                        snap.remote_pfn, owner_hop=snap.owner_hop)
                container.task.address_space.page_table = table
            return container

        def body():
            assert (yield from k0.reclaim(parent.task,
                                          [heap.start_vpn + 5])) == 1
            meta0 = yield from node0.fork_prepare(parent)
            child = yield from resume(node1, meta0, node0)
            yield from k1.touch(child.task, heap.start_vpn + 2)
            yield from k1.write_page(child.task, heap.start_vpn, "w")
            stack = child.task.address_space.vmas[-1]
            child.task.address_space.grow(stack, 2)
            yield from k1.touch(child.task, stack.end_vpn - 1, write=True)
            meta1 = yield from node1.fork_prepare(child)
            fan_out = yield from node1.fork_prepare(child)
            grandchild = yield from resume(node2, meta1, node1)
            yield from k2.touch(grandchild.task, heap.start_vpn + 3)
            yield from k2.write_page(grandchild.task, heap.start_vpn + 2,
                                     "w2")
            meta2 = yield from node2.fork_prepare(grandchild)
            return [cls._listed(node1, meta1), cls._listed(node1, fan_out),
                    cls._listed(node2, meta2)]

        return run(env, body())

    def test_prepare_from_resumed_child_matches_eager_rebuild(self):
        overlay = self._multi_hop_snapshots(eager=False)
        assert overlay == self._multi_hop_snapshots(eager=True)
        child, _, grandchild = overlay
        assert {hop for _, _, hop in child} == {0, 1}
        assert {hop for _, _, hop in grandchild} == {0, 1, 2}
        for listed in overlay:  # the reclaimed page: Table 2's RPC row
            assert [(pfn, hop) for _, pfn, hop in listed
                    if pfn is None] == [(None, 0)]

    def test_fan_out_prepares_list_identical_snapshots(self):
        child, fan_out, _ = self._multi_hop_snapshots(eager=False)
        assert fan_out == child

    def test_prepare_from_resumed_child_builds_only_touched_ptes(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        k1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        heap = parent.task.address_space.vmas[3]
        touched = [heap.start_vpn + i for i in range(4)]

        def body():
            meta0 = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta0)
            for vpn in touched:
                yield from k1.touch(child.task, vpn)
            meta1 = yield from node1.fork_prepare(child)
            _, shadow = node1.service.lookup(meta1.handler_id,
                                             meta1.auth_key)
            return child, shadow

        child, shadow = run(env, body())
        full = len(parent.task.address_space.page_table)  # 1,330 for TC0
        for task in (child.task, shadow):
            table = task.address_space.page_table
            assert [vpn for vpn, _ in table.materialized()] == touched
            assert len(table) == full

    def test_owner_hop_beyond_pte_bits_rejected_by_first_touch(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        k1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        heap = parent.task.address_space.vmas[3]

        def body():
            meta = yield from node0.fork_prepare(parent)
            descriptor, _ = node0.service.lookup(meta.handler_id,
                                                 meta.auth_key)
            descriptor.pte_snapshots[heap.start_vpn] = PteSnapshot(
                0, owner_hop=params.MAX_FORK_HOPS + 1)
            with pytest.raises(KernelError):
                child = yield from node1.fork_resume(meta)
                yield from k1.touch(child.task, heap.start_vpn)
            return True

        assert run(env, body())

    def test_derived_owner_hop_beyond_pte_bits_rejected_by_prepare(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        heap = parent.task.address_space.vmas[3]

        def body():
            meta = yield from node0.fork_prepare(parent)
            descriptor, _ = node0.service.lookup(meta.handler_id,
                                                 meta.auth_key)
            # Fits the child's PTE bits, but not the grandchild's.
            descriptor.pte_snapshots[heap.start_vpn] = PteSnapshot(
                0, owner_hop=params.MAX_FORK_HOPS)
            child = yield from node1.fork_resume(meta)
            with pytest.raises(KernelError, match="does not fit"):
                yield from node1.fork_prepare(child)
            return True

        assert run(env, body())

    @pytest.mark.parametrize("write", ["setitem", "update", "setdefault",
                                       "ior"])
    def test_entry_added_after_publish_is_rejected_by_prepare(self, rig,
                                                              write):
        """Whichever dict write adds an entry to a published
        first-generation map, the max hop the map carries counts it, so
        the child's fork_prepare rejects the hop its own child would
        need, as the scan it replaces did."""
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        snap = PteSnapshot(0, owner_hop=params.MAX_FORK_HOPS)

        def body():
            meta = yield from node0.fork_prepare(parent)
            descriptor, _ = node0.service.lookup(meta.handler_id,
                                                 meta.auth_key)
            snapshots = descriptor.pte_snapshots
            assert type(snapshots) is SnapshotMap and snapshots.max_hop == 0
            vpn = max(snapshots) + 1
            if write == "setitem":
                snapshots[vpn] = snap
            elif write == "update":
                snapshots.update({vpn: snap})
            elif write == "setdefault":
                snapshots.setdefault(vpn, snap)
            else:
                snapshots |= {vpn: snap}
            assert snapshots.max_hop == params.MAX_FORK_HOPS
            child = yield from node1.fork_resume(meta)
            with pytest.raises(KernelError, match="does not fit"):
                yield from node1.fork_prepare(child)
            return True

        assert run(env, body())

    def test_built_owner_index_beyond_pte_bits_rejected_by_prepare(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        heap = parent.task.address_space.vmas[3]

        def body():
            meta = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta)
            # A built, still-remote PTE: its owner index fits the child's
            # bits, but the hop the grandchild would need does not.
            pte = child.task.address_space.page_table.entry(heap.start_vpn)
            pte.set_owner_index(params.MAX_FORK_HOPS)
            with pytest.raises(KernelError, match="does not fit"):
                yield from node1.fork_prepare(child)
            return True

        assert run(env, body())

    def test_prepare_from_resumed_child_builds_entries_for_built_ptes_only(
            self, rig, monkeypatch):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        k1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        heap = parent.task.address_space.vmas[3]
        built = []
        snapshot_init = PteSnapshot.__init__

        def counting_init(snap, *args, **kwargs):
            built.append(snap)
            snapshot_init(snap, *args, **kwargs)

        def body():
            meta0 = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta0)
            for offset in range(4):
                yield from k1.touch(child.task, heap.start_vpn + offset)
            yield from k1.write_page(child.task, heap.start_vpn, "w")
            stack = child.task.address_space.vmas[-1]
            child.task.address_space.grow(stack, 2)
            yield from k1.touch(child.task, stack.end_vpn - 1, write=True)
            monkeypatch.setattr(PteSnapshot, "__init__", counting_init)
            meta1 = yield from node1.fork_prepare(child)
            monkeypatch.undo()
            return node1.service.lookup(meta1.handler_id, meta1.auth_key)

        descriptor, shadow = run(env, body())
        table = shadow.address_space.page_table
        # Four heap pages and one stack page built; 1,330 at the parent.
        assert 0 < len(built) <= len(table.materialized()) == 5
        # The reference: the shadow's table flattened, one entry per PTE.
        eager = {}
        for vpn, pte in table.entries():
            entry = _pte_snapshot(pte)
            if entry is not None:
                eager[vpn] = entry
        snapshots = descriptor.pte_snapshots
        assert len(snapshots) == len(eager) == len(table)
        assert ([(vpn, snap.remote_pfn, snap.owner_hop)
                 for vpn, snap in snapshots.items()]
                == [(vpn, snap.remote_pfn, snap.owner_hop)
                    for vpn, snap in eager.items()])
        assert descriptor.nbytes == (
            params.DESCRIPTOR_BASE_BYTES
            + len(descriptor.vma_descriptors) * params.DESCRIPTOR_PER_VMA_BYTES
            + len(eager) * params.DESCRIPTOR_PER_PTE_BYTES)

    def test_depth_limit_enforced(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node0 = deployment.node(cluster.machine(0))
        parent.task.predecessors = [
            (cluster.machine(0), None)] * params.MAX_FORK_HOPS

        def body():
            with pytest.raises(ForkDepthExceeded):
                yield from node0.fork_prepare(parent)
            return True

        assert run(env, body())


class TestRcTransportAblation:
    def test_rc_mode_pays_connection_setup(self):
        env, cluster, runtimes, deployment = build_rig(transport="rc")
        parent = start_parent(env, runtimes[0])
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))

        def body():
            meta = yield from node0.fork_prepare(parent)
            start = env.now
            yield from node1.fork_resume(meta)
            return env.now - start

        rc_elapsed = run(env, body())

        env2, cluster2, runtimes2, deployment2 = build_rig(transport="dct")
        parent2 = start_parent(env2, runtimes2[0])
        node0b = deployment2.node(cluster2.machine(0))
        node1b = deployment2.node(cluster2.machine(1))

        def body2():
            meta = yield from node0b.fork_prepare(parent2)
            start = env2.now
            yield from node1b.fork_resume(meta)
            return env2.now - start

        dct_elapsed = env2.run(env2.process(body2()))
        assert rc_elapsed > dct_elapsed + params.RC_CONNECT_LATENCY * 0.9

    def test_rc_mode_still_reads_pages(self):
        env, cluster, runtimes, deployment = build_rig(transport="rc")
        parent = start_parent(env, runtimes[0])
        kernel1 = runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        heap = parent.task.address_space.vmas[3]

        def body():
            meta = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta)
            return (yield from kernel1.touch(child.task, heap.start_vpn))

        assert run(env, body()) is not None


class TestDescriptorGc:
    def test_retire_frees_memory_and_revokes(self, rig):
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node0 = deployment.node(cluster.machine(0))
        kernel1 = runtimes[1].kernel
        node1 = deployment.node(cluster.machine(1))
        heap = parent.task.address_space.vmas[3]

        def body():
            meta = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta)
            yield from kernel1.touch(child.task, heap.start_vpn)
            assert node0.retire_descriptor(meta)
            # Further reads must take the fallback... which also fails
            # because the descriptor is gone entirely.
            try:
                yield from kernel1.touch(child.task, heap.start_vpn + 1)
            except RpcError:
                return "rejected"
            return "served"

        assert run(env, body()) == "rejected"

    @pytest.mark.parametrize("reclaimed, delay", [
        (1, 3.0), (1, 8.0), (1, 12.0), (1, 16.0), (0, 12.0), (0, 50.0),
    ], ids=["storage-at-arrival", "storage-8us", "storage-12us",
            "storage-16us", "swap-12us", "swap-50us"])
    def test_fallback_racing_a_retire_fails_instead_of_serving_storage(
            self, rig, reclaimed, delay):
        """The parent writes X and forks; its shadow reclaims X or a
        neighbour of X, which revokes the heap's DC target, so the
        child's read of X is NAKed and takes the fallback RPC.  A retire
        ``delay`` us into that fault lands before the daemon looks the
        descriptor up, in its 12 us page sleep, or in its storage sleep:
        each way the child gets the retired descriptor's RpcError,
        never a storage token or a freed swap slot, and a retire before
        the page sleep ends is answered without the storage sleep."""
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        kernel0, kernel1 = runtimes[0].kernel, runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        vpn = parent.task.address_space.vmas[3].start_vpn

        def fork():
            yield from kernel0.write_page(parent.task, vpn, "A")
            yield from kernel0.write_page(parent.task, vpn + 1, "A'")
            meta = yield from node0.fork_prepare(parent)
            child = yield from node1.fork_resume(meta)
            _, shadow = node0.service.lookup(meta.handler_id, meta.auth_key)
            yield from kernel0.reclaim(shadow, [vpn + reclaimed])
            return meta, child

        meta, child = run(env, fork())
        retired = []

        def retire():
            yield env.timeout(delay)
            retired.append(node0.retire_descriptor(meta))

        def fault():
            env.process(retire())
            started = env.now
            try:
                yield from kernel1.touch(child.task, vpn)
            except RpcError as exc:
                return str(exc), env.now - started
            return "served", env.now - started

        outcome, elapsed = run(env, fault())
        assert outcome == "bad fork meta in fallback"
        assert (elapsed < params.FALLBACK_STORAGE_PAGE_LATENCY) == (
            delay < params.FALLBACK_RPC_PAGE_LATENCY + 5.0)
        assert retired == [True]
        assert not child.task.address_space.page_table.entry(vpn).present
        assert node1.pager.counters["revocation_fallbacks"] == 1
        assert len(kernel0.swap) == 0

    @pytest.mark.parametrize("delay, answer", [
        (50.0, "bad fork meta in fallback"),
        (150.0, "m0/storage/v%d"),
    ], ids=["retired-in-storage-sleep", "retired-after"])
    def test_storage_page_racing_a_retire_is_not_served(self, rig, delay,
                                                        answer):
        """A page of the shadow's VMAs that was never loaded comes from
        storage; a retire during that load rejects the request like any
        other."""
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        node0 = deployment.node(cluster.machine(0))
        space = parent.task.address_space
        heap = space.vmas[3]
        vpn = heap.end_vpn
        space.grow(heap, 1)  # a heap page nobody has touched
        meta = run(env, node0.fork_prepare(parent))

        def retire():
            yield env.timeout(delay)
            node0.retire_descriptor(meta)

        def fallback():
            env.process(retire())
            try:
                return (yield from deployment.rpc.call(
                    cluster.machine(1), cluster.machine(0),
                    "mitosis.fallback_page",
                    {"handler_id": meta.handler_id,
                     "auth_key": meta.auth_key, "vpn": vpn},
                    request_bytes=params.FALLBACK_RPC_REQUEST_BYTES))
            except RpcError as exc:
                return str(exc)

        assert run(env, fallback()) == (
            answer % vpn if "%d" in answer else answer)

    def test_exited_task_frees_its_swap_slots(self, rig):
        """Every swap slot has one holder: the shadow's reclaimed page
        is freed when the retired shadow exits, and a local fork's copy
        when the forked task exits."""
        env, cluster, runtimes, deployment = rig
        parent = start_parent(env, runtimes[0])
        kernel0, kernel1 = runtimes[0].kernel, runtimes[1].kernel
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))
        vpn = parent.task.address_space.vmas[3].start_vpn

        def body():
            yield from kernel0.write_page(parent.task, vpn, "A")
            meta = yield from node0.fork_prepare(parent)
            _, shadow = node0.service.lookup(meta.handler_id, meta.auth_key)
            yield from kernel0.reclaim(shadow, [vpn])
            child = yield from node1.fork_resume(meta)
            content = yield from kernel1.touch(child.task, vpn)
            assert len(kernel0.swap) == 1
            twin = yield from kernel0.fork_local(shadow)
            assert len(kernel0.swap) == 2
            twin.exit()
            assert len(kernel0.swap) == 1
            assert node0.retire_descriptor(meta)
            return content

        assert run(env, body()) == "A"
        assert len(kernel0.swap) == 0
        assert audit_frame_refcounts([kernel0, kernel1]) == []

    def test_retire_unknown_meta_returns_false(self, rig):
        env, cluster, runtimes, deployment = rig
        from repro.core import ForkMeta
        node0 = deployment.node(cluster.machine(0))
        assert not node0.retire_descriptor(ForkMeta(0, 999, 1))


class TestExitMidFault:
    @pytest.mark.parametrize("sharing", [True, False],
                             ids=["sharing", "no-sharing"])
    def test_remote_fault_of_an_exited_child_maps_no_frame(self, sharing):
        """A child destroyed while its first remote fault's READ is in
        flight gets TaskExited from that fault, and no frame: the pager
        skips the dead task, so the kernel must not install behind it
        into the table the exit already swept."""
        env, cluster, runtimes, deployment = build_rig(
            enable_sharing=sharing)
        parent = start_parent(env, runtimes[0])
        kernels = [runtime.kernel for runtime in runtimes]
        node0 = deployment.node(cluster.machine(0))
        node1 = deployment.node(cluster.machine(1))

        def resume():
            meta = yield from node0.fork_prepare(parent)
            return (yield from node1.fork_resume(meta))

        child = run(env, resume())
        vpn = child.task.address_space.vmas[3].start_vpn
        outcome = []

        def fault():
            try:
                yield from kernels[1].touch(child.task, vpn)
            except TaskExited:
                outcome.append("exited")

        def destroy():
            yield env.timeout(params.PAGE_FAULT_OVERHEAD + 0.5 * params.US)
            runtimes[1].destroy(child)

        env.process(fault())
        env.process(destroy())
        env.run()
        assert outcome == ["exited"]
        assert node1.pager.counters["rdma_reads"] == 1
        assert audit_frame_refcounts(kernels) == []
        assert kernels[1].frames.allocated == 0
