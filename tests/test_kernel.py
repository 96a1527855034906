"""Unit tests for the kernel VM substrate."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import params
from repro.cluster import Cluster
from repro.core.descriptor import DerivedSnapshots, PteSnapshot, SnapshotMap
from repro.kernel import (
    Kernel,
    KernelError,
    NamespaceSet,
    PageTable,
    SegmentationFault,
    TaskExited,
    VmaKind,
)
from repro.sanitizers import audit_frame_refcounts
from repro.sim import Environment


@pytest.fixture
def rig():
    env = Environment()
    cluster = Cluster(env, num_machines=2, num_racks=1)
    kernels = [Kernel(env, m) for m in cluster]
    return env, cluster, kernels


def run(env, gen):
    return env.run(env.process(gen))


def make_task(kernel, heap_pages=8, code_pages=4):
    task = kernel.create_task("t")
    task.address_space.add_vma(code_pages, VmaKind.CODE, writable=False)
    task.address_space.add_vma(heap_pages, VmaKind.HEAP)
    return task


class TestFrames:
    def test_alloc_charges_dram(self, rig):
        env, cluster, (k0, _) = rig
        before = cluster.machine(0).memory.used
        frame = k0.frames.alloc()
        assert cluster.machine(0).memory.used == before + params.PAGE_SIZE
        k0.frames.unref(frame)
        assert cluster.machine(0).memory.used == before

    def test_refcounted_sharing(self, rig):
        env, _, (k0, _) = rig
        frame = k0.frames.alloc(content="x")
        k0.frames.ref(frame)
        k0.frames.unref(frame)
        assert frame.live
        k0.frames.unref(frame)
        assert not frame.live

    def test_double_free_rejected(self, rig):
        env, _, (k0, _) = rig
        frame = k0.frames.alloc()
        k0.frames.unref(frame)
        with pytest.raises(KernelError):
            k0.frames.unref(frame)


class TestAddressSpace:
    def test_vma_lookup(self, rig):
        env, _, (k0, _) = rig
        task = make_task(k0)
        code = task.address_space.vmas[0]
        assert task.address_space.find_vma(code.start_vpn) is code
        assert task.address_space.find_vma(code.end_vpn - 1) is code
        assert task.address_space.find_vma(10**9) is None

    def test_overlapping_vma_rejected(self, rig):
        env, _, (k0, _) = rig
        task = make_task(k0)
        code = task.address_space.vmas[0]
        with pytest.raises(KernelError):
            task.address_space.add_vma(2, VmaKind.ANON,
                                       start_vpn=code.start_vpn + 1)

    def test_grow_extends_vma(self, rig):
        env, _, (k0, _) = rig
        task = make_task(k0)
        heap = task.address_space.vmas[1]
        end = heap.end_vpn
        task.address_space.grow(heap, 4)
        assert heap.end_vpn == end + 4

    def test_descriptor_nbytes_scales_with_vmas(self, rig):
        env, _, (k0, _) = rig
        small = make_task(k0)
        big = make_task(k0)
        big.address_space.add_vma(100, VmaKind.ANON)
        assert (big.address_space.descriptor_nbytes()
                > small.address_space.descriptor_nbytes())


class TestFaults:
    def test_demand_zero_fill(self, rig):
        env, _, (k0, _) = rig
        task = make_task(k0)
        heap = task.address_space.vmas[1]

        def body():
            content = yield from k0.touch(task, heap.start_vpn)
            return content

        content = run(env, body())
        assert "zero" in content
        assert k0.counters["fault_demand_zero"] == 1

    def test_second_touch_is_free(self, rig):
        env, _, (k0, _) = rig
        task = make_task(k0)
        heap = task.address_space.vmas[1]

        def body():
            yield from k0.touch(task, heap.start_vpn)
            start = env.now
            yield from k0.touch(task, heap.start_vpn)
            return env.now - start

        assert run(env, body()) == 0.0

    def test_unmapped_access_segfaults(self, rig):
        env, _, (k0, _) = rig
        task = make_task(k0)

        def body():
            with pytest.raises(SegmentationFault):
                yield from k0.touch(task, 10**9)
            return True

        assert run(env, body())

    def test_write_to_readonly_vma_segfaults(self, rig):
        env, _, (k0, _) = rig
        task = make_task(k0)
        code = task.address_space.vmas[0]

        def body():
            with pytest.raises(SegmentationFault):
                yield from k0.touch(task, code.start_vpn, write=True)
            return True

        assert run(env, body())

    def test_warm_populates_everything(self, rig):
        env, _, (k0, _) = rig
        task = make_task(k0, heap_pages=8, code_pages=4)
        k0.warm(task)
        assert task.address_space.resident_pages == 12

    def test_write_page_changes_content(self, rig):
        env, _, (k0, _) = rig
        task = make_task(k0)
        heap = task.address_space.vmas[1]

        def body():
            yield from k0.write_page(task, heap.start_vpn, "payload-7")
            content = yield from k0.touch(task, heap.start_vpn)
            return content

        assert run(env, body()) == "payload-7"

    def _exit_mid_fault(self, env, task, fault, exit_after):
        """Run ``fault`` and exit ``task`` ``exit_after`` us in; returns
        what the fault raised (None if it returned)."""
        raised = []

        def faulting():
            try:
                yield from fault
            except KernelError as exc:
                raised.append(exc)

        def exiting():
            yield env.timeout(exit_after)
            task.exit()

        env.process(faulting())
        env.process(exiting())
        env.run()
        return raised[0] if raised else None

    def test_demand_zero_fault_of_an_exited_task_maps_no_frame(self, rig):
        """A task that exits halfway through a demand-zero fault's frame
        allocation gets TaskExited, and no frame leaks."""
        env, _, (k0, _) = rig
        task = make_task(k0)
        heap = task.address_space.vmas[1]
        raised = self._exit_mid_fault(
            env, task, k0.touch(task, heap.start_vpn, write=True),
            params.PAGE_FAULT_OVERHEAD + params.FRAME_ALLOC_LATENCY / 2)
        assert isinstance(raised, TaskExited)
        assert k0.frames.allocated == 0
        assert audit_frame_refcounts([k0]) == []

    def test_cow_break_of_an_exited_task_maps_no_frame(self, rig):
        """A forked child that exits while its write breaks COW gets
        TaskExited instead of a private copy, and the parent keeps its
        frames."""
        env, _, (k0, _) = rig
        parent = make_task(k0)
        k0.warm(parent)
        heap = parent.address_space.vmas[1]
        child = run(env, k0.fork_local(parent))
        raised = self._exit_mid_fault(
            env, child, k0.touch(child, heap.start_vpn, write=True),
            params.FRAME_ALLOC_LATENCY / 2)
        assert isinstance(raised, TaskExited)
        assert k0.frames.allocated == parent.address_space.resident_pages
        assert audit_frame_refcounts([k0]) == []


class TestLocalFork:
    def test_child_shares_then_copies(self, rig):
        env, _, (k0, _) = rig
        parent = make_task(k0)
        k0.warm(parent)
        heap = parent.address_space.vmas[1]

        def body():
            child = yield from k0.fork_local(parent)
            ppte = parent.address_space.page_table.entry(heap.start_vpn)
            cpte = child.address_space.page_table.entry(heap.start_vpn)
            shared = cpte.frame is ppte.frame
            yield from k0.touch(child, heap.start_vpn, write=True)
            cpte = child.address_space.page_table.entry(heap.start_vpn)
            return shared, cpte.frame is ppte.frame, ppte.frame.refcount

        shared, still_shared, parent_rc = run(env, body())
        assert shared
        assert not still_shared
        assert parent_rc == 1

    def test_child_sees_parent_content(self, rig):
        env, _, (k0, _) = rig
        parent = make_task(k0)
        heap = parent.address_space.vmas[1]

        def body():
            yield from k0.write_page(parent, heap.start_vpn, "from-parent")
            child = yield from k0.fork_local(parent)
            content = yield from k0.touch(child, heap.start_vpn)
            return content

        assert run(env, body()) == "from-parent"

    def test_parent_write_after_fork_isolated(self, rig):
        env, _, (k0, _) = rig
        parent = make_task(k0)
        heap = parent.address_space.vmas[1]

        def body():
            yield from k0.write_page(parent, heap.start_vpn, "v1")
            child = yield from k0.fork_local(parent)
            yield from k0.write_page(parent, heap.start_vpn, "v2")
            child_sees = yield from k0.touch(child, heap.start_vpn)
            parent_sees = yield from k0.touch(parent, heap.start_vpn)
            return child_sees, parent_sees

        child_sees, parent_sees = run(env, body())
        assert child_sees == "v1"
        assert parent_sees == "v2"

    def test_swapped_page_survives_fork_for_parent_and_child(self, rig):
        """A swap-in frees its slot, so a local fork gives the child a
        slot of its own: the parent's swap-in leaves the child's copy."""
        env, _, (k0, _) = rig
        parent = make_task(k0)
        heap = parent.address_space.vmas[1]

        def body():
            yield from k0.write_page(parent, heap.start_vpn, "precious")
            yield from k0.reclaim(parent, [heap.start_vpn])
            child = yield from k0.fork_local(parent)
            parent_sees = yield from k0.touch(parent, heap.start_vpn)
            child_sees = yield from k0.touch(child, heap.start_vpn)
            return parent_sees, child_sees

        assert run(env, body()) == ("precious", "precious")
        assert k0.counters["fault_swap_in"] == 2
        assert len(k0.swap) == 0

    def test_fork_costs_about_a_millisecond(self, rig):
        env, _, (k0, _) = rig
        parent = make_task(k0)
        k0.warm(parent)

        def body():
            start = env.now
            yield from k0.fork_local(parent)
            return env.now - start

        elapsed = run(env, body())
        assert 0.2 * params.MS < elapsed < 2 * params.MS

    def test_fork_clones_registers_and_fds(self, rig):
        env, _, (k0, _) = rig
        parent = make_task(k0)
        parent.registers.pc = 0xDEAD
        parent.open_fd("socket", "s3://bucket")

        def body():
            child = yield from k0.fork_local(parent)
            return child

        child = run(env, body())
        assert child.registers.pc == 0xDEAD
        assert child.registers is not parent.registers
        assert len(child.fd_table) == 1
        assert list(child.fd_table.values())[0].path == "s3://bucket"


class TestSwapAndReclaim:
    def test_reclaim_then_swap_in_roundtrip(self, rig):
        env, _, (k0, _) = rig
        task = make_task(k0)
        heap = task.address_space.vmas[1]

        def body():
            yield from k0.write_page(task, heap.start_vpn, "precious")
            count = yield from k0.reclaim(task, [heap.start_vpn])
            pte = task.address_space.page_table.entry(heap.start_vpn)
            gone = not pte.present
            content = yield from k0.touch(task, heap.start_vpn)
            return count, gone, content

        count, gone, content = run(env, body())
        assert count == 1
        assert gone
        assert content == "precious"
        assert k0.counters["fault_swap_in"] == 1

    def test_reclaim_hooks_fire_before_free(self, rig):
        env, _, (k0, _) = rig
        task = make_task(k0)
        heap = task.address_space.vmas[1]
        seen = []
        k0.reclaim_hooks.append(
            lambda t, vma, vpn, pte: seen.append((vpn, pte.frame.live)))

        def body():
            yield from k0.touch(task, heap.start_vpn)
            yield from k0.reclaim(task, [heap.start_vpn])
            return seen

        assert run(env, body()) == [(heap.start_vpn, True)]

    def test_reclaim_skips_absent_pages(self, rig):
        env, _, (k0, _) = rig
        task = make_task(k0)
        heap = task.address_space.vmas[1]

        def body():
            return (yield from k0.reclaim(task, [heap.start_vpn]))

        assert run(env, body()) == 0

    def test_release_task_frees_memory(self, rig):
        env, cluster, (k0, _) = rig
        task = make_task(k0)
        k0.warm(task)
        used = cluster.machine(0).memory.used
        assert used > 0
        task.exit()
        assert cluster.machine(0).memory.used == 0
        assert task.pid not in k0.tasks

    def test_release_drops_shared_frames_once_each(self, rig):
        """Releasing a forked child drops one reference per frame it
        maps, frees only the frames it alone held, and leaves the
        allocator, the memory account and the parent's mappings
        consistent."""
        env, cluster, (k0, _) = rig
        memory = cluster.machine(0).memory
        parent = make_task(k0)
        k0.warm(parent)
        heap = parent.address_space.vmas[1]
        shared = parent.address_space.resident_pages

        def body():
            child = yield from k0.fork_local(parent)
            for offset in range(3):  # three private copies
                yield from k0.write_page(child, heap.start_vpn + offset, "c")
            return child

        child = run(env, body())
        assert k0.frames.allocated == shared + 3
        child.exit()
        assert k0.frames.allocated == shared
        assert memory.used == shared * params.PAGE_SIZE
        assert audit_frame_refcounts([k0]) == []
        assert {pte.frame.refcount for _, pte
                in parent.address_space.page_table.materialized()} == {1}

    def test_release_of_a_freed_frame_raises(self, rig):
        """Releasing a task whose PTE maps a frame already freed is a
        double unref: KernelError, as FrameAllocator.unref raises, and
        the frames released before it stay counted as freed."""
        env, cluster, (k0, _) = rig
        task = make_task(k0)
        k0.warm(task)
        frames = [pte.frame for _, pte
                  in task.address_space.page_table.materialized()]
        k0.frames.unref(frames[-1])  # freed behind the PTE's back
        with pytest.raises(KernelError, match="freed frame"):
            k0.release_task(task)
        assert k0.frames.allocated == 0
        assert cluster.machine(0).memory.used == 0

    def test_exit_frees_swap_slots(self, rig):
        env, _, (k0, _) = rig
        task = make_task(k0)
        heap = task.address_space.vmas[1]

        def body():
            for offset in range(2):
                yield from k0.write_page(task, heap.start_vpn + offset, "s")
            yield from k0.reclaim(task, [heap.start_vpn, heap.start_vpn + 1])
            child = yield from k0.fork_local(task)
            return child

        child = run(env, body())
        assert len(k0.swap) == 4  # the child holds copies of its own
        child.exit()
        assert len(k0.swap) == 2
        task.exit()
        assert len(k0.swap) == 0


def eager_copy(snapshots):
    """The reference: the table fork_resume used to build, one remote PTE
    per snapshot vpn, created in snapshot order."""
    table = PageTable()
    for vpn, snap in snapshots.items():
        table.ensure(vpn).mark_remote(snap.remote_pfn,
                                      owner_hop=snap.owner_hop)
    return table


def pte_fields(pte):
    """Every PTE field, comparable across two tables (None for no PTE)."""
    if pte is None:
        return None
    return (pte.present, pte.writable, pte.cow, pte.remote, pte.swap_slot,
            pte.frame, pte.remote_pfn, pte.owner_index)


def eager_derivation(own, elder):
    """The reference: the map fork_prepare used to copy entry by entry
    from a resumed child's shadow.  ``own`` maps each vpn whose PTE the
    shadow built to that PTE's entry (None where it maps nothing);
    ``elder`` is the child's snapshot map."""
    derived = {}
    for vpn, snap in elder.items():
        if vpn in own:
            entry = own[vpn]
            if entry is None:
                continue
        elif snap.remote_pfn is None:
            entry = PteSnapshot(None, owner_hop=0)
        else:
            entry = PteSnapshot(snap.remote_pfn, owner_hop=snap.owner_hop + 1)
        derived[vpn] = entry
    for vpn, entry in own.items():
        if vpn not in elder and entry is not None:
            derived[vpn] = entry
    return derived


#: At most this many own layers stack over a root; the root's and the
#: layers' own hops leave room for the hop each layer above adds.
MAX_LAYERS = 3
PFNS = st.integers(0, 10**6)


def root_snapshots(max_hop):
    return st.dictionaries(
        st.integers(0, 40),
        st.builds(PteSnapshot, st.one_of(st.none(), PFNS),
                  st.integers(0, max_hop)),
        max_size=30)


#: One built shadow PTE's entry: present (hop 0), remote with a PA,
#: mapped without a PA, or a tombstone for a PTE that maps nothing.
OWN_ENTRIES = st.one_of(
    st.builds(PteSnapshot, PFNS, st.just(0)),
    st.builds(PteSnapshot, PFNS,
              st.integers(1, params.MAX_FORK_HOPS - MAX_LAYERS)),
    st.builds(PteSnapshot, st.none(), st.just(0)),
    st.none())


@st.composite
def derived_snapshots(draw):
    """``(derived map, eager reference)``: 1-3 own layers over a random
    root, stacked hop by hop as fork_prepare stacks them.  Own vpns
    reach past the root's range, so some are locally added."""
    reference = draw(root_snapshots(params.MAX_FORK_HOPS - MAX_LAYERS))
    snapshots = SnapshotMap(reference)
    for _ in range(draw(st.integers(1, MAX_LAYERS))):
        own = draw(st.dictionaries(st.integers(0, 44), OWN_ENTRIES,
                                   max_size=12))
        snapshots = DerivedSnapshots(own, snapshots)
        reference = eager_derivation(own, reference)
    return snapshots, reference


SNAPSHOTS = st.one_of(root_snapshots(params.MAX_FORK_HOPS),
                      derived_snapshots().map(lambda pair: pair[0]))
OPS = st.lists(st.tuples(st.sampled_from(("entry", "ensure", "install",
                                          "entries")),
                         st.integers(0, 48)),
               max_size=40)


class TestSnapshotOverlay:
    """A table overlaid on a descriptor snapshot must be indistinguishable
    from the eager copy, except that it builds PTEs on first touch."""

    @staticmethod
    def apply(table, op, vpn):
        if op == "entry":
            return pte_fields(table.entry(vpn))
        if op == "ensure":
            return pte_fields(table.ensure(vpn))
        if op == "install":  # what a serviced fault leaves behind
            pte = table.ensure(vpn)
            if not pte.present:
                pte.map_frame("frame-%d" % vpn, writable=True)
                pte.clear_remote()
            return pte_fields(pte)
        return [(v, pte_fields(p)) for v, p in table.entries()]

    @staticmethod
    def assert_same_view(overlay, eager):
        assert len(overlay) == len(eager)
        assert overlay.nbytes == eager.nbytes
        assert ([vpn in overlay for vpn in range(50)]
                == [vpn in eager for vpn in range(50)])
        assert sorted(overlay.present_vpns()) == sorted(eager.present_vpns())

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(SNAPSHOTS, OPS)
    def test_overlay_matches_eager_copy(self, snapshots, ops):
        overlay = PageTable()
        overlay.attach_snapshot(snapshots)
        eager = eager_copy(snapshots)
        for op, vpn in ops:
            assert self.apply(overlay, op, vpn) == self.apply(eager, op, vpn)
            self.assert_same_view(overlay, eager)
        assert overlay.remote_vpns() == eager.remote_vpns()
        assert ([(v, pte_fields(p)) for v, p in overlay.entries()]
                == [(v, pte_fields(p)) for v, p in eager.entries()])
        self.assert_same_view(overlay, eager)

    @staticmethod
    def fork(table):
        """Fork ``table`` as Kernel.fork_local does; returns the child."""
        child = PageTable()
        for _, pte, child_pte in table.fork_into(child):
            if pte.present:
                child_pte.map_frame(pte.frame, writable=pte.writable,
                                    cow=True)
                pte.share_cow()
        return child

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(SNAPSHOTS, OPS, OPS)
    def test_fork_matches_fork_of_eager_copy(self, snapshots, ops, after):
        overlay = PageTable()
        overlay.attach_snapshot(snapshots)
        eager = eager_copy(snapshots)
        for op, vpn in ops:
            self.apply(overlay, op, vpn)
            self.apply(eager, op, vpn)
        children = self.fork(overlay), self.fork(eager)
        for op, vpn in after:  # the child runs on, the parent stays put
            assert (self.apply(children[0], op, vpn)
                    == self.apply(children[1], op, vpn))
        for overlaid, flat in (children, (overlay, eager)):
            self.assert_same_view(overlaid, flat)
            assert ([(v, pte_fields(p)) for v, p in overlaid.entries()]
                    == [(v, pte_fields(p)) for v, p in flat.entries()])

    @settings(max_examples=300, deadline=None)
    @given(derived_snapshots())
    def test_derived_map_matches_eager_derivation(self, pair):
        derived, reference = pair

        def fields(snap):
            return None if snap is None else (snap.remote_pfn, snap.owner_hop)

        assert len(derived) == len(reference)
        for vpn in range(50):
            assert (vpn in derived) == (vpn in reference)
            assert fields(derived.get(vpn)) == fields(reference.get(vpn))
        assert ([(vpn, fields(snap)) for vpn, snap in derived.items()]
                == [(vpn, fields(snap)) for vpn, snap in reference.items()])
        assert derived.max_hop >= max(
            [snap.owner_hop for snap in reference.values()], default=0)

    def test_untouched_entries_are_not_materialized(self):
        overlay = PageTable()
        overlay.attach_snapshot({7: PteSnapshot(70), 9: PteSnapshot(90)})
        assert len(overlay) == 2 and 9 in overlay
        assert list(overlay.materialized()) == []
        assert overlay.present_vpns() == []
        pte = overlay.entry(9)
        assert pte.remote and pte.remote_pfn == 90
        assert [vpn for vpn, _ in overlay.materialized()] == [9]

    def test_owner_hop_beyond_pte_bits_raises_on_first_touch(self):
        overlay = PageTable()
        overlay.attach_snapshot(
            {5: PteSnapshot(1, owner_hop=params.MAX_FORK_HOPS + 1)})
        assert 5 in overlay
        with pytest.raises(KernelError):
            overlay.entry(5)
        with pytest.raises(KernelError):
            overlay.entries()


class TestNamespaces:
    def test_defaults_all_on(self):
        ns = NamespaceSet()
        assert all(ns.flags.values())

    def test_clone_is_equal_but_distinct(self):
        ns = NamespaceSet(net=False)
        twin = ns.clone()
        assert twin == ns
        twin.flags["net"] = True
        assert twin != ns

    def test_unknown_flag_rejected(self):
        with pytest.raises(ValueError):
            NamespaceSet(bogus=True)


class TestCgroupPool:
    def test_pooled_take_instant(self, rig):
        env, _, (k0, _) = rig

        def body():
            start = env.now
            cgroup = yield from k0.cgroup_pool.take()
            return env.now - start, cgroup

        elapsed, cgroup = run(env, body())
        assert elapsed == 0.0
        assert cgroup is not None

    def test_exhausted_pool_pays_creation(self, rig):
        env, _, (k0, _) = rig
        k0.cgroup_pool._free.clear()

        def body():
            start = env.now
            yield from k0.cgroup_pool.take()
            return env.now - start

        assert run(env, body()) == pytest.approx(
            params.CGROUP_POOL_REFILL_LATENCY)

    def test_give_back_recycles(self, rig):
        env, _, (k0, _) = rig

        def body():
            cgroup = yield from k0.cgroup_pool.take()
            available = k0.cgroup_pool.available
            k0.cgroup_pool.give_back(cgroup)
            return available, k0.cgroup_pool.available

        before, after = run(env, body())
        assert after == before + 1
