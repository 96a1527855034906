"""Connection control plane: QP pooling, adverts, and the gating invariant.

Three layers of coverage:

* unit tests against :class:`QpPool` / :class:`AdvertCache` directly
  (LRU eviction order, refcounted sharing, crash invalidation, batched
  miss creation, memory-charge balance);
* rig tests over :class:`FnCluster` (off-path byte identity, the
  ``REPRO_CONNPLANE`` knob, advert fast-path forks, crash propagation,
  the connplane sanitizer);
* the hypothesis property at the bottom — the PR's acceptance property:
  for *any* small fork schedule, the pooled and unpooled runs produce
  identical per-invocation outcomes, only timestamps may shrink, and
  every audit stays clean.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import params, sanitizers
from repro.cluster import Cluster
from repro.connplane import AdvertCache, AdvertEntry, ConnPlane, QpPool, \
    default_connplane
from repro.faults import MachineCrash
from repro.fn import FnCluster, MitosisPolicy
from repro.metrics import CounterSet
from repro.rdma import ConnectionError_, RdmaFabric
from repro.sim import Environment, Interrupt
from repro.workloads import tc0_profile

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

QP = params.RCQP_FOOTPRINT_BYTES


# --- Harness helpers ------------------------------------------------------------

def _rig(num_machines=6):
    """A bare env + cluster + fabric (machines with NICs and memory)."""
    env = Environment()
    cluster = Cluster(env, num_machines=num_machines)
    fabric = RdmaFabric(env, cluster)
    return env, cluster, fabric


def _pool(env, cluster, capacity_qps=2):
    return QpPool(env, cluster.machine(0), CounterSet(),
                  capacity_bytes=capacity_qps * QP)


def _run(env, gen):
    """Drive one generator to completion; returns its value."""
    return env.run(env.process(gen))


def _burst(num_forks, enable=None, seed=0, transport="rc", gap=0.0):
    """A small fork burst; ``enable`` optionally arms fn layers."""
    fn = FnCluster(MitosisPolicy(), num_invokers=2, num_machines=5,
                   num_dfs_osds=2, seed=seed, transport=transport)
    if enable is not None:
        enable(fn)
    profile = tc0_profile()

    def setup():
        yield from fn.register(profile)

    fn.env.run(fn.env.process(setup()))
    if gap:
        arrivals = [i * gap for i in range(num_forks)]
        fn.env.run(fn.env.process(fn.replay(profile.name, arrivals)))
    else:
        for proc in [fn.submit(profile.name) for _ in range(num_forks)]:
            fn.env.run(proc)
    fn.env.run()
    return fn


def _trace(fn):
    return [(r.function_name, r.submitted_at, r.started_at, r.finished_at,
             r.start_kind, r.invoker_index) for r in fn.records]


def _outcomes(fn):
    return [(r.function_name, r.start_kind, r.invoker_index, r.outcome,
             r.attempts) for r in fn.records]


# --- The env knob ---------------------------------------------------------------

class TestKnob:
    def test_spellings(self, monkeypatch):
        for raw, armed in (("", False), ("0", False), ("off", False),
                           ("none", False), ("no", False), ("false", False),
                           (" Off ", False), ("NONE", False),
                           ("1", True), ("yes", True), ("on", True)):
            monkeypatch.setenv("REPRO_CONNPLANE", raw)
            assert default_connplane() is armed, raw
        monkeypatch.delenv("REPRO_CONNPLANE")
        assert default_connplane() is False

    def test_knob_arms_cluster_wide(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONNPLANE", "1")
        fn = FnCluster(MitosisPolicy(), num_invokers=2, num_machines=5,
                       num_dfs_osds=2, seed=0)
        assert fn.connplane is not None
        for node in fn.deployment.nodes():
            assert node.connplane is fn.connplane
            assert node.pager.connplane is fn.connplane
            assert node.service.connplane is fn.connplane

    def test_enable_is_idempotent(self):
        fn = FnCluster(MitosisPolicy(), num_invokers=2, num_machines=5,
                       num_dfs_osds=2, seed=0)
        plane = fn.enable_connplane()
        assert fn.enable_connplane() is plane


# --- Off-path guarantees --------------------------------------------------------

class TestOffPath:
    def test_off_by_default_and_byte_identical(self, monkeypatch):
        monkeypatch.delenv("REPRO_CONNPLANE", raising=False)
        for transport in ("rc", "dct"):
            bare = _burst(10, transport=transport)
            assert bare.connplane is None
            again = _burst(10, transport=transport)
            assert again.env.events_processed == bare.env.events_processed
            assert again.env.now == bare.env.now
            assert _trace(again) == _trace(bare)

    def test_single_qp_create_cost_unchanged(self):
        # The shared `create_rc_qps` seam must cost a count=1 creation
        # exactly like the seed: one serialized factory pass each side
        # overlapping one 4 ms handshake.
        assert (params.RCQP_CREATE_LATENCY
                == pytest.approx(params.SEC / 700.0))
        env, cluster, fabric = _rig()
        nic = fabric.nics[0]
        assert nic._creation_pass_cost(1) == params.RCQP_CREATE_LATENCY
        started = env.now
        qp = _run(env, nic.create_rc_qp(cluster.machine(1)))
        assert qp.usable
        assert env.now - started == pytest.approx(
            params.RCQP_CREATE_LATENCY + params.RC_CONNECT_LATENCY)

    def test_batched_creation_amortizes_the_factory(self):
        env, cluster, fabric = _rig()
        nic = fabric.nics[0]
        started = env.now
        qps = _run(env, nic.create_rc_qps(cluster.machine(1), 4))
        assert len(qps) == 4 and all(q.usable for q in qps)
        pass_cost = (params.RCQP_CREATE_LATENCY
                     + 3 * params.CONNPLANE_QP_BATCH_LATENCY)
        assert env.now - started == pytest.approx(
            pass_cost + params.RC_CONNECT_LATENCY)
        # Strictly cheaper than four sequential seed-path creations.
        assert env.now - started < 4 * (params.RCQP_CREATE_LATENCY
                                        + params.RC_CONNECT_LATENCY)


# --- QpPool unit tests ----------------------------------------------------------

class TestQpPool:
    def test_miss_then_hit_and_memory_charge(self):
        env, cluster, _ = _rig()
        pool = _pool(env, cluster)
        lease = _run(env, pool.acquire(cluster.machine(1)))
        assert pool.counters["pool_misses"] == 1
        assert cluster.machine(0).memory.used == QP
        lease.release()
        hit_at = env.now
        again = _run(env, pool.acquire(cluster.machine(1)))
        assert env.now == hit_at  # a warm hit costs zero simulated time
        assert pool.counters["pool_hits"] == 1
        assert again.qp is lease.qp
        again.release()
        assert not sanitizers.audit_connplane(_plane_of(pool))

    def test_release_is_idempotent(self):
        env, cluster, _ = _rig()
        pool = _pool(env, cluster)
        lease = _run(env, pool.acquire(cluster.machine(1)))
        lease.release()
        lease.release()
        assert pool.leases_released == 1
        assert pool.live_refs() == 0

    def test_colocated_children_share_one_qp(self):
        env, cluster, _ = _rig()
        pool = _pool(env, cluster)
        first = _run(env, pool.acquire(cluster.machine(1)))
        second = _run(env, pool.acquire(cluster.machine(1)))  # busy entry shared
        assert second.qp is first.qp
        assert pool.counters["pool_shared"] == 1
        assert first.entry.refs == 2
        assert cluster.machine(0).memory.used == QP  # one QP, one charge
        first.release()
        assert first.entry.refs == 1  # still pinned by the second lease
        second.release()
        assert pool.live_refs() == 0

    def test_concurrent_misses_batch_into_one_factory_pass(self):
        env, cluster, _ = _rig()
        pool = _pool(env, cluster, capacity_qps=8)
        leases = []

        def claim():
            lease = yield from pool.acquire(cluster.machine(1))
            leases.append(lease)

        procs = [env.process(claim()) for _ in range(4)]
        for proc in procs:
            env.run(proc)
        assert len(leases) == 4
        assert pool.counters["pool_misses"] == 4
        assert pool.counters["pool_batched_creates"] == 3
        # One batched pass, not four serialized handshakes.
        assert env.now == pytest.approx(
            params.RCQP_CREATE_LATENCY
            + 3 * params.CONNPLANE_QP_BATCH_LATENCY
            + params.RC_CONNECT_LATENCY)
        qps = {id(lease.qp) for lease in leases}
        assert len(qps) == 4  # each waiter got its own QP
        for lease in leases:
            lease.release()

    def test_lru_evicts_least_recently_released(self):
        env, cluster, _ = _rig()
        pool = _pool(env, cluster, capacity_qps=2)
        a = _run(env, pool.acquire(cluster.machine(1)))
        a.release()
        b = _run(env, pool.acquire(cluster.machine(2)))
        b.release()
        # Re-claim A (hit), create C, then release both: the warm set
        # would be {B, C, A} = 3 QPs over a 2-QP budget, and B — the
        # least recently *released* — must be the one evicted.
        a2 = _run(env, pool.acquire(cluster.machine(1)))
        c = _run(env, pool.acquire(cluster.machine(3)))
        c.release()
        a2.release()
        assert pool.counters["pool_evictions"] == 1
        peers = sorted(e.peer_id for e in pool.entries())
        assert peers == [1, 3]  # B (peer 2) evicted; A and C stay warm
        assert not b.qp.usable  # the evicted QP was closed
        assert cluster.machine(0).memory.used == 2 * QP

    def test_in_use_qps_are_never_evicted(self):
        env, cluster, _ = _rig()
        pool = _pool(env, cluster, capacity_qps=1)
        held = [_run(env, pool.acquire(cluster.machine(p))) for p in (1, 2, 3)]
        # Three busy QPs transiently exceed the 1-QP budget: pinned
        # entries are not eviction candidates.
        assert pool.counters["pool_evictions"] == 0
        assert all(lease.qp.usable for lease in held)
        assert cluster.machine(0).memory.used == 3 * QP
        for lease in held:
            lease.release()
        # Once idle, the budget applies again.
        assert pool.warm_bytes <= pool.capacity_bytes
        assert pool.counters["pool_evictions"] == 2

    def test_invalidate_peer_closes_warm_and_busy(self):
        env, cluster, _ = _rig()
        pool = _pool(env, cluster, capacity_qps=4)
        leases = []

        def claim():
            lease = yield from pool.acquire(cluster.machine(1))
            leases.append(lease)

        # Two *concurrent* misses create two distinct QPs (a sequential
        # second acquire would just share the busy one).
        procs = [env.process(claim()) for _ in range(2)]
        for proc in procs:
            env.run(proc)
        busy, warm = leases
        warm.release()
        other = _run(env, pool.acquire(cluster.machine(2)))
        pool.invalidate_peer(1)
        assert pool.counters["pool_invalidated"] == 2
        assert not busy.qp.usable  # the holder sees RC semantics: ERROR
        assert other.qp.usable  # untouched peer survives
        assert cluster.machine(0).memory.used == QP  # dead QPs freed their charge
        busy.release()  # late release of an invalidated lease is safe
        other.release()
        assert pool.leases_released == 3

    def test_crash_wipe_fails_pending_misses(self):
        env, cluster, _ = _rig()
        pool = _pool(env, cluster)
        failures = []

        def claim():
            try:
                yield from pool.acquire(cluster.machine(1))
            except ConnectionError_ as exc:
                failures.append(exc)

        proc = env.process(claim())
        env.run(until=1.0)  # mid-creation: the miss grant is queued
        pool.invalidate_all()
        env.run(proc)
        assert len(failures) == 1  # wedging forever would be silent loss
        env.run()
        assert cluster.machine(0).memory.used in (0, QP)  # in-flight batch may land
        if cluster.machine(0).memory.used:
            pool.invalidate_all()
        assert cluster.machine(0).memory.used == 0

    def _claim(self, pool, peer):
        """``(process, leases)``: a process waiting on
        ``pool.acquire(peer)`` that swallows an interrupt, and the list
        its lease lands in."""
        leases = []

        def claim():
            try:
                leases.append((yield from pool.acquire(peer)))
            except Interrupt:
                pass

        return pool.env.process(claim()), leases

    def test_interrupted_queued_miss_is_withdrawn(self):
        env, cluster, _ = _rig()
        pool = _pool(env, cluster)
        _, first = self._claim(pool, cluster.machine(1))
        env.run(until=1.0)  # first batch mid-creation
        victim, lost = self._claim(pool, cluster.machine(1))
        env.run(until=2.0)  # queued for the next batch
        assert len(pool._demand[1]) == 1
        victim.interrupt("gone")
        assert pool._demand[1] == []
        env.run()
        assert not lost
        assert len(pool.entries()) == 1  # no batch created for the victim
        first[0].release()
        assert pool.leases_issued == pool.leases_released == 1
        assert not sanitizers.audit_connplane(_plane_of(pool))

    def test_interrupted_miss_mid_creation_parks_its_qp_warm(self):
        env, cluster, _ = _rig()
        pool = _pool(env, cluster)
        victim, lost = self._claim(pool, cluster.machine(1))
        env.run(until=1.0)  # its batch is mid-creation
        assert pool._inflight[1] and not pool._demand[1]
        victim.interrupt("gone")
        env.run()
        assert not lost
        assert pool.leases_issued == pool.leases_released == 0
        assert [e.refs for e in pool.entries()] == [0]  # parked warm
        assert cluster.machine(0).memory.used == QP
        assert not sanitizers.audit_connplane(_plane_of(pool))

    def test_interrupted_granted_miss_releases_its_lease(self):
        env, cluster, _ = _rig()
        pool = _pool(env, cluster)
        victim, lost = self._claim(pool, cluster.machine(1))
        env.step()  # the victim starts and waits on its miss grant
        grant = victim._target
        while not grant.triggered:
            env.step()
        victim.interrupt("gone")  # granted, not yet delivered
        env.run()
        assert not lost
        assert pool.leases_issued == pool.leases_released == 1
        assert [e.refs for e in pool.entries()] == [0]  # parked warm
        assert not sanitizers.audit_connplane(_plane_of(pool))

    def test_prewarm_leaves_one_warm_qp(self):
        env, cluster, _ = _rig()
        pool = _pool(env, cluster)
        _run(env, pool.prewarm(cluster.machine(1)))
        assert pool.counters["pool_prewarms"] == 1
        assert [e.refs for e in pool.entries()] == [0]
        # Re-prewarming an already-warm peer is a no-op.
        _run(env, pool.prewarm(cluster.machine(1)))
        assert pool.counters["pool_prewarms"] == 1
        assert len(pool.entries()) == 1


def _plane_of(pool):
    """Wrap a bare pool so audit_connplane can sweep it."""
    class _Shim:
        pools = {pool.machine.machine_id: pool}
        caches = {}
    return _Shim()


# --- AdvertCache unit tests -----------------------------------------------------

class TestAdvertCache:
    def _entry(self, fn, name="TC0", generation=None):
        invoker, seed, meta = fn.policy.seeds[name]
        node = fn.deployment.node(invoker.machine)
        descriptor = node.service.lookup(meta.handler_id, meta.auth_key)[0]
        if generation is not None:
            meta.generation = generation
        return AdvertEntry(name, meta, descriptor, invoker.machine)

    def _fn(self):
        fn = FnCluster(MitosisPolicy(), num_invokers=2, num_machines=5,
                       num_dfs_osds=2, seed=0)
        profile = tc0_profile()

        def setup():
            yield from fn.register(profile)

        fn.env.run(fn.env.process(setup()))
        return fn

    def test_install_lookup_and_charge(self):
        fn = self._fn()
        cache = AdvertCache(fn.cluster.machine(4), CounterSet())
        entry = self._entry(fn)
        before = fn.cluster.machine(4).memory.used
        cache.install(entry)
        assert fn.cluster.machine(4).memory.used == before + entry.nbytes
        assert entry.nbytes == entry.descriptor.advert_bytes
        assert cache.lookup(entry.meta) is entry
        assert cache.has(entry.name, entry.meta)
        cache.clear()
        assert fn.cluster.machine(4).memory.used == before
        assert cache.lookup(entry.meta) is None

    def test_reinstall_replaces_atomically(self):
        fn = self._fn()
        cache = AdvertCache(fn.cluster.machine(4), CounterSet())
        old = self._entry(fn)
        cache.install(old)
        # A re-advertisement under the same name supersedes the old
        # handle: holders of the old meta must miss from then on.
        new = AdvertEntry(old.name, _remint(old.meta), old.descriptor,
                          old.parent_machine)
        cache.install(new)
        assert len(cache) == 1
        assert cache.lookup(new.meta) is new
        assert cache.lookup(old.meta) is None
        assert fn.cluster.machine(4).memory.used == new.nbytes

    def test_drop_machine_and_generation_fence(self):
        fn = self._fn()
        counters = CounterSet()
        cache = AdvertCache(fn.cluster.machine(4), counters)
        entry = self._entry(fn, generation=3)
        cache.install(entry)
        cache.drop_below_generation(entry.name, 3)
        assert len(cache) == 1  # at the floor: still serves
        cache.drop_below_generation(entry.name, 4)
        assert len(cache) == 0
        assert counters["adverts_fenced"] == 1
        cache.install(self._entry(fn))
        cache.drop_machine(entry.meta.machine_id)
        assert len(cache) == 0
        assert counters["adverts_invalidated"] == 1
        assert fn.cluster.machine(4).memory.used == 0  # every charge released
        assert cache.cached_bytes == 0


def _remint(meta):
    """A distinct ForkMeta for the same handler (fresh auth key)."""
    from repro.core.descriptor import ForkMeta
    return ForkMeta(meta.machine_id, meta.handler_id, meta.auth_key + 1,
                    lease_expires_at=meta.lease_expires_at,
                    generation=meta.generation)


# --- Armed rig behaviour --------------------------------------------------------

class TestArmedRig:
    def test_advert_fast_path_forks_and_audits_clean(self):
        fn = _burst(12, enable=lambda fn: fn.enable_connplane(),
                    gap=1000.0)
        stats = fn.connplane.stats()
        assert all(r.start_kind == "mitosis" and r.outcome == "ok"
                   for r in fn.records)
        # Pushed-ahead adverts served the forks without the per-fork
        # descriptor query, and repeat forks hit the warm pool.
        assert stats["counters"]["advert_hits"] > 0
        assert stats["counters"]["pool_hits"] \
            + stats["counters"]["pool_shared"] > 0
        assert not sanitizers.audit_rig(fn)

    def test_armed_run_is_not_slower(self):
        for transport in ("rc", "dct"):
            bare = _burst(10, transport=transport, gap=500.0)
            armed = _burst(10, transport=transport, gap=500.0,
                           enable=lambda fn: fn.enable_connplane())
            assert _outcomes(armed) == _outcomes(bare)
            assert armed.env.now <= bare.env.now

    def test_leases_released_on_every_fork_exit(self):
        fn = _burst(9, enable=lambda fn: fn.enable_connplane())
        for pool in fn.connplane.pools.values():
            assert pool.live_refs() == 0
            assert pool.leases_issued == pool.leases_released
        assert not sanitizers.audit_connplane(fn.connplane)

    def test_machine_crash_wipes_pools_and_adverts(self):
        fn = FnCluster(MitosisPolicy(), num_invokers=2, num_machines=5,
                       num_dfs_osds=2, seed=0, transport="rc")
        fn.enable_connplane()
        fn.enable_faults()
        profile = tc0_profile()

        def setup():
            yield from fn.register(profile)

        fn.env.run(fn.env.process(setup()))
        arrivals = [i * 1000.0 for i in range(6)]
        fn.env.run(fn.env.process(fn.replay(profile.name, arrivals)))
        seed_invoker, _, meta = fn.policy.seeds[profile.name]
        seed_mid = seed_invoker.machine.machine_id
        assert any(cache.entries()
                   for cache in fn.connplane.caches.values())
        fn.faults.crash_machine(seed_mid)
        fn.env.run(until=fn.env.now + 10 * params.SEC)
        # No cache anywhere still points at the dead seed machine, and
        # no pool holds a QP toward it.
        for cache in fn.connplane.caches.values():
            assert not any(e.meta.machine_id == seed_mid
                           for e in cache.entries())
        for pool in fn.connplane.pools.values():
            assert not any(e.peer_id == seed_mid for e in pool.entries())
        fn.stop_fault_daemons()

    def test_crash_during_prewarm_does_not_escape_the_loop(self):
        # Registration's advert push starts a prewarm on each invoker; m1
        # crashes while its QP grant is still queued.  The wipe fails the
        # grant, and prewarm, being best-effort, must swallow it.
        fn = FnCluster(MitosisPolicy(), num_invokers=3, num_machines=6,
                       transport="rc")
        fn.enable_connplane()
        fn.enable_faults()
        profile = tc0_profile()
        fn.env.run(fn.env.process(fn.register(profile)))
        fn.faults.apply([MachineCrash(1 * params.MS, 1,
                                      down_for=100 * params.MS)])
        end = fn.env.now + 200 * params.MS
        fn.env.run(until=end)
        assert fn.env.now == end
        fn.stop_fault_daemons()

    def test_replica_releases_its_lease_once_fully_copied(self):
        # Registration grows two lineage replicas by forking the seed on
        # m0; each resume leases a pooled QP toward m0.  m0's crash drops
        # those pool entries, so a replica still holding its lease leaks
        # it past the crash.
        fn = FnCluster(MitosisPolicy(), num_invokers=3, num_machines=6,
                       transport="rc")
        fn.enable_connplane()
        fn.enable_faults()
        fn.enable_lineage(replicas=2)
        fn.env.run(fn.env.process(fn.register(tc0_profile())))
        fn.faults.apply([MachineCrash(1 * params.MS, 0,
                                      down_for=100 * params.MS)])
        fn.env.run(until=fn.env.now + 200 * params.MS)
        fn.stop_fault_daemons()
        fn.env.run()
        assert sanitizers.audit_connplane(fn.connplane) == []

    def test_expired_lease_never_hits_the_advert_cache(self):
        fn = _burst(3, enable=lambda fn: fn.enable_connplane())
        invoker, _, meta = fn.policy.seeds["TC0"]
        target = next(i for i in fn.invokers if i is not invoker)
        cache = fn.connplane.caches[target.machine.machine_id]
        assert cache.has("TC0", meta)
        meta.lease_expires_at = fn.env.now - 1.0
        assert fn.connplane.lookup(target.machine, meta) is None

    def test_sanitizer_catches_a_planted_pool_leak(self):
        fn = _burst(4, enable=lambda fn: fn.enable_connplane())
        pool = next(iter(fn.connplane.pools.values()))
        pool.leases_issued += 1  # a lease taken off the books
        violations = sanitizers.audit_connplane(fn.connplane)
        assert any("lease" in v for v in violations)

    def test_sanitizer_catches_an_advert_charge_leak(self):
        fn = _burst(4, enable=lambda fn: fn.enable_connplane())
        cache = next(c for c in fn.connplane.caches.values()
                     if c.entries())
        entry = cache.entries()[0]
        cache._by_name.pop(entry.name)  # drop without freeing the charge
        cache._by_meta.pop(entry.meta)
        violations = sanitizers.audit_memory_conservation(
            list(fn.cluster), kernels=fn.kernels,
            descriptor_services=[n.service for n in fn.deployment.nodes()],
            tmpfs_stores=[i.tmpfs for i in fn.invokers],
            dfs=fn.dfs, connplane=fn.connplane)
        assert any("leaked" in v for v in violations)


# --- The acceptance property ----------------------------------------------------

@given(num_forks=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2 ** 16),
       transport=st.sampled_from(["rc", "dct"]),
       gap=st.sampled_from([0.0, 200.0, 5000.0]))
@SETTINGS
def test_pooled_and_unpooled_runs_are_equivalent(num_forks, seed,
                                                 transport, gap):
    """For any small fork schedule, arming the plane changes *when*
    things happen but never *what* happens.

    Timing is bounded in aggregate, not per record: a prewarm can
    transiently contend the NIC factory with a concurrent fork, so an
    individual invocation may drift a few µs — but the schedule as a
    whole must never get meaningfully slower.
    """
    bare = _burst(num_forks, seed=seed, transport=transport, gap=gap)
    armed = _burst(num_forks, seed=seed, transport=transport, gap=gap,
                   enable=lambda fn: fn.enable_connplane())
    assert _outcomes(armed) == _outcomes(bare)
    assert [r.submitted_at for r in armed.records] \
        == [r.submitted_at for r in bare.records]
    def makespan(rig):
        return max(r.finished_at for r in rig.records)
    assert makespan(armed) <= makespan(bare) * 1.01
    assert not sanitizers.audit_rig(armed)
    assert not sanitizers.audit_rig(bare)
