"""Seed-lineage fault-tolerance tests (``repro.lineage``).

Covers the full ladder: replication is byte-identical when off, replicas
fully catch up when on, a killed primary is replaced by a promoted
replica (orphaned children failing over mid-fork), a *flapped* primary is
generation-fenced on re-admission, and the WAL rebuilds the registry
exactly.  The Hypothesis property at the bottom drives arbitrary bounded
crash/flap schedules and holds the two safety invariants: no invocation
is both completed and lost, and no two holders ever lease one descriptor
at different generations.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import sanitizers
from repro.experiments.faults import seed_kill_burst
from repro.faults import MachineCrash, NicFlap
from repro.fn import FnCluster, MitosisPolicy
from repro.lineage import default_seed_replicas
from repro.lineage.errors import StaleGeneration
from repro.lineage.registry import LineageRegistry
from repro.lineage.runtime import LineageRuntime
from repro.workloads import tc0_profile


def build_cluster(replicas, seed=0, num_invokers=4, schedule=()):
    policy = MitosisPolicy(durable_seed=True)
    fn = FnCluster(policy, num_invokers=num_invokers,
                   num_machines=num_invokers + 3, num_dfs_osds=2, seed=seed)
    fn.enable_faults()
    if replicas > 0:
        fn.enable_lineage(replicas=replicas)
    if schedule:
        fn.faults.apply(schedule)
    fn.env.run(fn.env.process(fn.register(tc0_profile())))
    return fn, policy


def copy_stream_window(monkeypatch):
    """``(start, end, replica machine id)`` of the one provision-time
    copy stream of a fail-free ``build_cluster(1)``."""
    streams = []
    copy = LineageRuntime._copy_vmas

    def timed(self, member, name, start_index):
        started = self.env.now
        yield from copy(self, member, name, start_index)
        streams.append((started, self.env.now,
                        member.invoker.machine.machine_id))

    with monkeypatch.context() as patch:
        patch.setattr(LineageRuntime, "_copy_vmas", timed)
        build_cluster(1)
    (window,) = streams
    return window


def run_burst(fn, count, spacing=2_000.0):
    procs = []

    def driver():
        for _ in range(count):
            procs.append(fn.submit("TC0"))
            yield fn.env.timeout(spacing)
        for proc in procs:
            yield proc

    fn.env.run(fn.env.process(driver()))
    fn.stop_fault_daemons()
    fn.env.run()
    return list(fn.records)


def services_of(fn):
    return [node.service for node in fn.deployment.nodes()]


def fingerprint(fn):
    counters = [node.pager.counters.as_dict()
                for node in fn.deployment.nodes()]
    return fn.env.now, fn.env.events_processed, counters


class TestOffPathByteIdentity:
    def test_replicas_zero_is_event_identical(self, monkeypatch):
        """``REPRO_SEED_REPLICAS=0`` must be indistinguishable from the
        lineage layer not existing: same clock, same event count, same
        pager counters, and no lineage runtime installed."""
        monkeypatch.delenv("REPRO_SEED_REPLICAS", raising=False)
        fn_off, _ = build_cluster(0)
        baseline = fingerprint(fn_off), run_burst(fn_off, 20)
        assert fn_off.lineage is None

        monkeypatch.setenv("REPRO_SEED_REPLICAS", "0")
        fn_env, _ = build_cluster(0)
        assert default_seed_replicas() == 0
        assert fn_env.enable_lineage() is None
        assert fn_env.lineage is None
        explicit = fingerprint(fn_env), run_burst(fn_env, 20)

        assert fingerprint(fn_off) == fingerprint(fn_env)
        assert [r.outcome for r in baseline[1]] == [
            r.outcome for r in explicit[1]]

    def test_env_knob_arms_replication(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED_REPLICAS", "2")
        assert default_seed_replicas() == 2
        fn, _ = build_cluster(0)  # build_cluster skips explicit arming
        assert fn.lineage is not None  # enable_faults picked up the env
        assert fn.lineage.replicas == 2
        run_burst(fn, 2)


class TestReplication:
    def test_replicas_catch_up_and_audit_clean(self):
        fn, _policy = build_cluster(2)
        records = run_burst(fn, 12)
        assert all(r.outcome == "ok" for r in records)
        registry = fn.lineage.registry
        assert registry.names() == ["TC0"]
        replicas = registry.replicas("TC0")
        assert len(replicas) == 2
        for replica in replicas.values():
            assert replica["handler_id"] is not None
            assert replica["copy_epoch"] == registry.primary_epoch("TC0")
        assert len(registry.holder_generations("TC0")) == 1
        assert fn.lineage.counters["replicas_grown"] == 2
        assert fn.lineage.counters["pages_replicated"] > 0
        sanitizers.check_lineage(fn.lineage, services=services_of(fn))
        sanitizers.check_rig(fn)

    @pytest.mark.parametrize("fraction", [0.3, 0.7])
    def test_crash_mid_copy_stream_leaks_no_frame(self, monkeypatch,
                                                  fraction):
        """The copier runs unhosted, so a crash of the replica's host
        does not interrupt it: the crash wipe destroys the replica while
        one of the copier's page faults is in flight.  That fault must
        map no frame into the destroyed replica; the copy counts as one
        failure and every machine's frames audit clean."""
        start, end, machine_id = copy_stream_window(monkeypatch)
        crash = MachineCrash(start + fraction * (end - start), machine_id)
        fn, _policy = build_cluster(1, schedule=[crash])
        fn.stop_fault_daemons()
        fn.env.run()
        assert fn.lineage.counters["replica_copy_failures"] == 1
        assert fn.lineage.counters["replicas_grown"] == 0
        assert sanitizers.audit_frame_refcounts(fn.kernels) == []

    def test_replica_placement_avoids_primary(self):
        fn, _policy = build_cluster(2)
        run_burst(fn, 4)
        registry = fn.lineage.registry
        primary = registry.placement("TC0")["invoker"]
        assert primary not in registry.replicas("TC0")


class TestPromotionAndFencing:
    def test_crash_promotes_replica_and_rescues_children(self):
        fn, policy, records = seed_kill_burst(2, burst=20, seed=0)
        assert sum(1 for r in records if r.outcome == "lost") == 0
        assert all(r.start_kind == "mitosis" for r in records)
        assert fn.lineage.counters["promotions"] >= 1
        assert policy.counters["seed_reelections"] == 0
        assert policy.counters["criu_degraded_starts"] == 0
        assert policy.counters["cold_degraded_starts"] == 0
        assert fn.lineage.registry.generation("TC0") > 1
        sanitizers.check_lineage(fn.lineage, services=services_of(fn))

    def test_crash_without_replicas_degrades_to_dfs_reelection(self):
        fn, policy, records = seed_kill_burst(0, burst=20, seed=0)
        assert fn.lineage is None
        assert sum(1 for r in records if r.outcome == "lost") == 0
        assert policy.counters["seed_reelections"] >= 1

    def test_flap_fences_the_revived_primary(self):
        """A partitioned primary keeps its daemon state; on re-admission
        the fence must land and it must never again serve below the
        floor — the audit joins serve_log against fence_log."""
        fn, _policy, records = seed_kill_burst(2, burst=20, seed=0,
                                               flap=True)
        assert sum(1 for r in records if r.outcome == "lost") == 0
        assert fn.lineage.counters["promotions"] >= 1
        assert fn.lineage.counters["fences_delivered"] >= 1
        fenced_floors = [entry for service in services_of(fn)
                         for entry in service.fence_log]
        assert fenced_floors, "no daemon ever applied the fence"
        sanitizers.check_lineage(fn.lineage, services=services_of(fn))

    def test_orphaned_children_fail_over_mid_fork(self):
        fn, _policy, _records = seed_kill_burst(2, burst=20, seed=0,
                                                flap=True)
        orphan_rescues = sum(node.pager.counters["orphan_rescues"]
                             for node in fn.deployment.nodes())
        failovers = fn.lineage.counters["failovers"]
        assert orphan_rescues >= 1
        assert failovers >= orphan_rescues

    def test_daemon_rejects_stale_generation(self):
        fn, _policy = build_cluster(2)
        run_burst(fn, 2)
        service = services_of(fn)[0]
        service._lineage[999] = ("TC0", 1)
        service.apply_fence("TC0", 3)
        with pytest.raises(StaleGeneration):
            service._fence_check(999)
        service._lineage[999] = ("TC0", 3)  # handler current again...
        with pytest.raises(StaleGeneration):  # ...but the caller is stale
            service._fence_check(999, caller_generation=2)


class TestWalRecovery:
    def test_replay_reproduces_registry_after_faults(self):
        fn, _policy, _records = seed_kill_burst(2, burst=16, seed=0)
        registry = fn.lineage.registry
        replayed = LineageRegistry.from_wal(registry.wal)
        assert replayed.snapshot() == registry.snapshot()

    def test_truncated_wal_is_detected(self):
        fn, _policy, _records = seed_kill_burst(2, burst=8, seed=0)
        registry = fn.lineage.registry
        dropped = registry.wal._records.pop()
        try:
            violations = sanitizers.audit_lineage(fn.lineage)
            assert any("diverges" in v for v in violations)
        finally:
            registry.wal._records.append(dropped)

    def test_restarted_registry_continues_the_history(self):
        fn, _policy, _records = seed_kill_burst(2, burst=8, seed=0)
        old = fn.lineage.registry
        restarted = LineageRegistry.from_wal(old.wal)
        generation = restarted.generation("TC0")
        restarted.fence(fn.env.now, "TC0", generation)
        assert restarted.fence_of("TC0") == generation
        assert restarted.wal is old.wal  # one continuous journal


def _fault_schedules():
    crash = st.builds(
        lambda at, mid, down: MachineCrash(float(at), mid,
                                           down_for=float(down)),
        st.integers(0, 60_000), st.integers(0, 3),
        st.integers(50_000, 500_000))
    flap = st.builds(
        lambda at, mid, down: NicFlap(float(at), mid, float(down)),
        st.integers(0, 60_000), st.integers(0, 3),
        st.integers(1_000, 100_000))
    return st.lists(st.one_of(crash, flap), max_size=3)


class TestLineageProperty:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schedule=_fault_schedules())
    def test_no_split_brain_under_any_schedule(self, schedule):
        """Under any bounded crash/flap schedule with replication on:
        every submitted invocation resolves to exactly one terminal
        outcome (none both completed and lost), at most one distinct
        generation ever holds leases on a descriptor (checked at every
        WAL prefix by the auditor), and the daemons never serve below an
        applied fence."""
        fn, _policy = build_cluster(2, seed=0)
        fn.faults.apply(schedule)
        records = run_burst(fn, 12, spacing=10_000.0)
        assert len(records) == 12
        assert all(r.outcome in ("ok", "recovered", "lost")
                   for r in records)
        completed = sum(1 for r in records
                        if r.outcome in ("ok", "recovered"))
        lost = sum(1 for r in records if r.outcome == "lost")
        assert completed + lost == len(records)
        for name in fn.lineage.registry.names():
            assert len(fn.lineage.registry.holder_generations(name)) <= 1
        sanitizers.check_lineage(fn.lineage, services=services_of(fn))
