"""Runtime-sanitizer tests (``repro.sanitizers``).

Two halves:

* seeded end-to-end experiments that must audit **clean** — the
  acceptance bar for the static rules' dynamic counterparts; and
* deliberately injected corruptions that each auditor must **detect**
  (a sanitizer that can't fail is not testing anything).

Setting ``REPRO_SANITIZERS=1`` additionally runs the strict sweep, which
audits a matrix of seeds and rig configurations instead of one each.
"""

import pytest

from repro import sanitizers
from repro.containers import hello_world_image
from repro.experiments.rigs import PrimitiveRig
from repro.fn import FnCluster, MitosisPolicy
from repro.lineage.registry import LineageRegistry
from repro.workloads import execute, tc0_profile


def build_rig(**kwargs):
    kwargs.setdefault("num_machines", 4)
    kwargs.setdefault("num_dfs_osds", 1)
    return PrimitiveRig(**kwargs)


def remote_fork_lifecycle(rig):
    """Warm a parent, fork two remote children, execute, reclaim, fork a
    grandchild from the first child, tear down.

    Audits the rig at four quiescent points; returns nothing (raises
    :class:`~repro.sanitizers.SanitizerViolation` on any audit failure).
    """
    profile = tc0_profile()
    state = {}

    def body():
        parent = yield from rig.runtime(0).cold_start(profile.image)
        meta = yield from rig.node(0).fork_prepare(parent)
        child1 = yield from rig.node(1).fork_resume(meta)
        child2 = yield from rig.node(2).fork_resume(meta)
        yield from execute(rig.env, child1, profile)
        yield from execute(rig.env, child2, profile)
        state.update(parent=parent, meta=meta, children=[child1, child2])

    rig.run(body())
    # Quiescent point 1: shadow, children, shared page caches all live.
    sanitizers.check_rig(rig)

    meta = state["meta"]
    _, shadow = rig.node(0).service.lookup(meta.handler_id, meta.auth_key)
    heap = next(v for v in shadow.address_space.vmas if v.writable)

    def churn():
        # The parent reclaims shadow pages (passive revocation destroys
        # the VMA's DC target), then a child writes through the same VMA —
        # COW breaks and RPC fallbacks must keep the books balanced.
        yield from rig.kernel(0).reclaim(
            shadow, [heap.start_vpn, heap.start_vpn + 1])
        child = state["children"][0]
        yield from rig.kernel(1).touch(child.task, heap.start_vpn,
                                       write=True)

    rig.run(churn())
    # Quiescent point 2: after reclaim + revocation-fallback churn.
    sanitizers.check_rig(rig)

    def second_hop():
        # Multi-hop (§4.4): the first child, resumed on a snapshot
        # overlay, is forked again; the grandchild also reads a page the
        # child never touched, which the seed's shadow serves two hops up.
        child1 = state["children"][0]
        touched = {vpn for vpn, _ in
                   child1.task.address_space.page_table.materialized()}
        far = next(vpn for vpn, _ in
                   state["parent"].task.address_space.page_table.entries()
                   if vpn not in touched)
        meta1 = yield from rig.node(1).fork_prepare(child1)
        grandchild = yield from rig.node(2).fork_resume(meta1)
        yield from execute(rig.env, grandchild, profile)
        yield from rig.kernel(2).touch(grandchild.task, far)
        state.update(meta1=meta1, grandchild=grandchild)

    rig.run(second_hop())
    # Quiescent point 3: a second shadow, and a page owned two hops up.
    sanitizers.check_rig(rig)

    assert rig.node(0).retire_descriptor(meta)
    assert rig.node(1).retire_descriptor(state["meta1"])
    rig.runtime(2).destroy(state["grandchild"])
    for index, child in enumerate(state["children"], start=1):
        rig.runtime(index).destroy(child)
    rig.runtime(0).destroy(state["parent"])
    # Quiescent point 4: full teardown must return every frame and byte.
    sanitizers.check_rig(rig)
    for kernel in rig.kernels:
        assert kernel.frames.allocated == 0


class TestEndToEndClean:
    def test_remote_fork_lifecycle_audits_clean(self):
        remote_fork_lifecycle(build_rig(seed=7))

    def test_fn_cluster_audits_clean(self):
        fn = FnCluster(MitosisPolicy(), num_invokers=3, num_machines=6,
                       num_dfs_osds=2, seed=1)
        profile = tc0_profile()

        def body():
            yield from fn.register(profile)
            records = []
            for _ in range(4):
                records.append((yield from fn.invoke("TC0")))
            return records

        records = fn.env.run(fn.env.process(body()))
        assert all(r.outcome == "ok" for r in records)
        fn.deployment.stop_fault_daemons()
        sanitizers.check_rig(fn)

    @pytest.mark.skipif(not sanitizers.enabled(),
                        reason="set REPRO_SANITIZERS=1 for the strict sweep")
    def test_strict_sweep(self):
        for seed in (0, 1, 2):
            remote_fork_lifecycle(build_rig(seed=seed))
            remote_fork_lifecycle(build_rig(seed=seed, enable_sharing=False))
        remote_fork_lifecycle(build_rig(seed=3, access_control="active"))
        remote_fork_lifecycle(build_rig(seed=4, prefetch_depth=4))


class TestAuditorsDetect:
    """Each auditor must flag a deliberately injected corruption."""

    def _parent_rig(self):
        rig = build_rig(num_machines=2)

        def body():
            return (yield from rig.runtime(0).cold_start(hello_world_image()))

        return rig, rig.run(body())

    def test_frame_leak_detected(self):
        rig, _parent = self._parent_rig()
        rig.kernel(0).frames.alloc(content="leaked")  # alloc, never mapped
        violations = sanitizers.audit_frame_refcounts([rig.kernel(0)])
        assert any("frame leak" in v for v in violations)
        # The stray charge also breaks conservation on the same machine.
        conservation = sanitizers.audit_memory_conservation(
            [rig.machine(0)], kernels=[rig.kernel(0)])
        assert conservation == []  # frames holder still covers the bytes

    def test_refcount_mismatch_detected(self):
        rig, parent = self._parent_rig()
        _vpn, pte = next(iter(
            parent.task.address_space.page_table.entries()))
        pte.frame.refcount += 1  # corrupt, bypassing FrameAllocator
        violations = sanitizers.audit_frame_refcounts([rig.kernel(0)])
        assert any("refcount" in v for v in violations)

    def test_charge_leak_detected(self):
        rig, _parent = self._parent_rig()
        rig.machine(0).memory.alloc(4096)  # charge with no holder
        violations = sanitizers.audit_memory_conservation(
            [rig.machine(0)], kernels=[rig.kernel(0)])
        assert any("leaked" in v for v in violations)

    def test_undrained_loop_detected(self):
        rig = build_rig(num_machines=2)

        def boom():
            yield rig.env.timeout(1.0)
            raise RuntimeError("unwaited failure")

        rig.env.process(boom())
        violations = sanitizers.audit_loop_drained(rig.env)
        assert any("drain raised" in v for v in violations)

    def test_check_rig_raises_with_violation_list(self):
        rig, _parent = self._parent_rig()
        rig.machine(0).memory.alloc(4096)
        with pytest.raises(sanitizers.SanitizerViolation) as excinfo:
            sanitizers.check_rig(rig)
        assert excinfo.value.violations


class _StubLineage:
    """The minimal surface :func:`~repro.sanitizers.audit_lineage` needs."""

    def __init__(self, registry):
        self.registry = registry


class _StubService:
    def __init__(self, serve_log=(), fence_log=()):
        self.serve_log = list(serve_log)
        self.fence_log = list(fence_log)


def _lineage_registry():
    """A registry taken through a realistic history: place, replicate,
    elect a replica, fence the old primary."""
    registry = LineageRegistry()
    registry.place_primary(10.0, "TC0", invoker=0, handler_id=1,
                           machine_id=0, vma_count=2)
    registry.add_replica(11.0, "TC0", invoker=1, machine_id=2)
    registry.bump_copy_epoch(12.0, "TC0", invoker=1)
    registry.bump_copy_epoch(13.0, "TC0", invoker=1)
    registry.replica_ready(14.0, "TC0", invoker=1, handler_id=7)
    registry.elect(20.0, "TC0", invoker=1, handler_id=7, vma_count=2)
    registry.fence(21.0, "TC0", registry.generation("TC0"))
    return registry


class TestLineageAuditor:
    def test_realistic_history_audits_clean(self):
        lineage = _StubLineage(_lineage_registry())
        services = [_StubService(
            serve_log=[(15.0, "TC0", 1, "page"),  # before the fence: legal
                       (22.0, "TC0", 2, "descriptor")],
            fence_log=[(21.5, "TC0", 2)])]
        assert sanitizers.audit_lineage(lineage, services=services) == []

    def test_split_brain_leases_detected(self):
        registry = _lineage_registry()
        # A stale grant slipping straight into the journal (bypassing the
        # mutator's guard) leaves two generations holding leases at once.
        record = registry.wal.append(25.0, "grant_lease", name="TC0",
                                     invoker=3, handler_id=1, generation=1)
        registry._apply(record)
        violations = sanitizers.audit_lineage(_StubLineage(registry))
        assert any("split-brain" in v for v in violations)

    def test_copy_epoch_overrun_detected(self):
        registry = _lineage_registry()
        registry.add_replica(25.0, "TC0", invoker=2, machine_id=4)
        for at in (26.0, 27.0, 28.0):
            record = registry.wal.append(at, "bump_copy_epoch", name="TC0",
                                         invoker=2)
            registry._apply(record)
        violations = sanitizers.audit_lineage(_StubLineage(registry))
        assert any("above the primary epoch" in v for v in violations)

    def test_unjournaled_mutation_detected(self):
        registry = _lineage_registry()
        registry._generations["TC0"] += 1  # mutate without journaling
        violations = sanitizers.audit_lineage(_StubLineage(registry))
        assert any("diverges" in v for v in violations)

    def test_serve_after_fence_detected(self):
        lineage = _StubLineage(_lineage_registry())
        services = [_StubService(
            serve_log=[(30.0, "TC0", 1, "page")],  # stale gen after fence
            fence_log=[(21.5, "TC0", 2)])]
        violations = sanitizers.audit_lineage(lineage, services=services)
        assert any("below its applied fence floor" in v for v in violations)

    def test_lowered_fence_detected(self):
        registry = _lineage_registry()
        record = registry.wal.append(30.0, "fence", name="TC0", generation=1)
        registry._apply(record)
        violations = sanitizers.audit_lineage(_StubLineage(registry))
        assert any("lowered" in v for v in violations)

    def test_check_lineage_raises(self):
        registry = _lineage_registry()
        registry._generations["TC0"] += 1
        with pytest.raises(sanitizers.SanitizerViolation):
            sanitizers.check_lineage(_StubLineage(registry))


class TestFlag:
    def test_enabled_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZERS", raising=False)
        assert not sanitizers.enabled()
        for off in ("0", "off", "none", "no", "false", " FALSE "):
            monkeypatch.setenv("REPRO_SANITIZERS", off)
            assert not sanitizers.enabled(), off
        for on in ("1", "yes", "on"):
            monkeypatch.setenv("REPRO_SANITIZERS", on)
            assert sanitizers.enabled(), on
