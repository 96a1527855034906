"""Shared-fabric model: Clos topology, fluid links, DCQCN pacing,
fabric fault events, and the congestion-control convergence property.

The hypothesis test at the bottom is the PR's acceptance property: for
*any* flow arrival schedule the congestion-control loop converges —
queues stay bounded, every admitted transfer completes, and the fabric
conservation audit is clean.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import params
from repro.cluster import Cluster
from repro.fabricnet import (FABRIC_MODES, ClosFabricTopology, FabricFlow,
                             FabricLink, FabricNetwork, default_fabric_mode)
from repro.faults import FabricCut, FabricDegrade, NicSaturation
from repro.fn import FnCluster, MitosisPolicy
from repro.rdma.errors import ConnectionError_
from repro.sanitizers import audit_fabric
from repro.sim import Environment
from repro.workloads import tc0_profile

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

LINE = params.FABRIC_HOST_BANDWIDTH


class TestFabricLink:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FabricLink("bad", 0.0)

    def test_admit_charges_serialization_and_tracks_backlog(self):
        link = FabricLink("l", 100.0, ecn_threshold=500, max_queue=2000)
        delay, marked, dropped = link.admit(0.0, 400)
        assert (delay, marked, dropped) == (4.0, False, False)
        assert link.backlog(0.0) == pytest.approx(400.0)
        # Halfway through the horizon half the bytes have drained.
        assert link.backlog(2.0) == pytest.approx(200.0)
        assert link.backlog(10.0) == 0.0

    def test_ecn_mark_past_threshold(self):
        link = FabricLink("l", 100.0, ecn_threshold=500, max_queue=2000)
        link.admit(0.0, 400)
        delay, marked, dropped = link.admit(0.0, 400)
        assert marked and not dropped
        assert delay == pytest.approx(8.0)  # queued behind the first
        assert link.ecn_marks == 1

    def test_tail_drop_past_cap_and_force_override(self):
        link = FabricLink("l", 100.0, ecn_threshold=500, max_queue=2000)
        link.admit(0.0, 800)
        delay, marked, dropped = link.admit(0.0, 1500)
        assert dropped and delay == 0.0
        assert link.drops == 1 and link.bytes_dropped == 1500
        assert link.busy_until == pytest.approx(8.0)  # drop charges nothing
        # force (the last go-back-N attempt) bypasses the cap.
        _, _, dropped = link.admit(0.0, 1500, force=True)
        assert not dropped
        assert link.peak_backlog == pytest.approx(2300.0)

    def test_cut_drops_everything_until_uncut(self):
        link = FabricLink("l", 100.0)
        link.cut_link()
        _, _, dropped = link.admit(0.0, 10)
        assert dropped
        link.uncut_link()
        _, _, dropped = link.admit(0.0, 10)
        assert not dropped

    def test_degrade_composes_and_restore_clamps(self):
        link = FabricLink("l", 100.0)
        link.degrade(2.0)
        link.degrade(2.0)
        assert link.rate() == pytest.approx(25.0)
        link.restore(2.0)
        link.restore(2.0)
        assert link.rate() == pytest.approx(100.0)
        with pytest.raises(ValueError):
            link.degrade(1.0)

    def test_inject_backlog_pushes_horizon_and_peak(self):
        link = FabricLink("l", 100.0)
        link.inject_backlog(0.0, 1000)
        assert link.backlog(0.0) == pytest.approx(1000.0)
        assert link.peak_backlog == pytest.approx(1000.0)
        # Injected bytes are background noise, not conservation traffic.
        assert link.bytes_enqueued == 0


class TestClosTopology:
    def _topo(self):
        env = Environment()
        cluster = Cluster(env, num_machines=6, num_racks=2)
        return cluster, ClosFabricTopology(cluster)

    def test_loopback_path_is_empty(self):
        cluster, topo = self._topo()
        assert topo.path(cluster.machine(0), cluster.machine(0)) == []

    def test_same_rack_path_skips_the_spine(self):
        cluster, topo = self._topo()
        path = topo.path(cluster.machine(0), cluster.machine(2))
        assert path == [topo.host_up[0], topo.host_down[2]]

    def test_cross_rack_path_crosses_both_tors(self):
        cluster, topo = self._topo()
        path = topo.path(cluster.machine(0), cluster.machine(1))
        assert path == [topo.host_up[0], topo.tor_up[0],
                        topo.tor_down[1], topo.host_down[1]]

    def test_tor_uplinks_are_oversubscribed(self):
        _, topo = self._topo()
        expected = 3 * topo.host_bandwidth / topo.oversubscription
        assert topo.tor_up[0].capacity == pytest.approx(expected)
        assert topo.tor_up[0].capacity < 3 * topo.host_bandwidth

    def test_links_enumeration_is_deterministic(self):
        _, topo = self._topo()
        names = [link.name for link in topo.links()]
        assert len(names) == 2 * 6 + 2 * 2
        assert names == [link.name for link in topo.links()]


class TestFabricFlow:
    def test_first_mark_halves_the_rate(self):
        flow = FabricFlow((0, 1), LINE)
        assert flow.rate == LINE and flow.alpha == 1.0
        flow.mark(0.0)
        assert flow.rate == pytest.approx(LINE / 2.0)

    def test_marks_floor_at_min_flow_rate(self):
        flow = FabricFlow((0, 1), LINE)
        for _ in range(64):
            flow.mark(0.0)
        assert flow.rate == params.FABRIC_MIN_FLOW_RATE

    def test_observe_recovers_additively_toward_line_rate(self):
        flow = FabricFlow((0, 1), LINE)
        flow.mark(0.0)
        flow.observe(params.FABRIC_DCQCN_RECOVERY_PERIOD)
        assert flow.rate == pytest.approx(
            LINE / 2.0 + params.FABRIC_DCQCN_RECOVERY_STEP)
        flow.observe(1e9)
        assert flow.rate == LINE
        assert flow.alpha < 1e-3

    def test_observe_within_one_period_is_a_noop(self):
        flow = FabricFlow((0, 1), LINE)
        flow.mark(0.0)
        cut = flow.rate
        flow.observe(params.FABRIC_DCQCN_RECOVERY_PERIOD * 0.5)
        assert flow.rate == cut

    def test_pacer_is_transparent_at_line_rate(self):
        flow = FabricFlow((0, 1), LINE)
        position = flow.reserve(0.0, 64 * params.KB)
        assert position == 0.0
        assert flow.ready_in(0.0, position, 64 * params.KB) == 0.0

    def test_pacer_stretches_after_a_cut_and_drains(self):
        flow = FabricFlow((0, 1), LINE)
        flow.mark(0.0)  # rate = LINE / 2
        nbytes = 64 * params.KB
        position = flow.reserve(0.0, nbytes)
        wait = flow.ready_in(0.0, position, nbytes)
        # Pacing delay beyond serialization: n/(L/2) - n/L = n/L.
        assert wait == pytest.approx(nbytes / LINE)
        # After sleeping the quoted wait the reservation has paced out.
        assert flow.ready_in(wait, position, nbytes) == 0.0

    def test_pacer_is_fifo_across_reservations(self):
        flow = FabricFlow((0, 1), LINE)
        flow.mark(0.0)
        nbytes = 64 * params.KB
        first = flow.reserve(0.0, nbytes)
        second = flow.reserve(0.0, nbytes)
        assert second == pytest.approx(nbytes)
        assert (flow.ready_in(0.0, second, nbytes)
                > flow.ready_in(0.0, first, nbytes))

    def test_sub_nanosecond_residue_clamps_to_zero(self):
        # fp-noise waits would never advance a late simulation clock.
        flow = FabricFlow((0, 1), LINE)
        flow.mark(0.0)
        position = flow.reserve(0.0, 8)  # 8 B / LINE ≈ 0.6 ns of pacing
        assert flow.ready_in(0.0, position, 8) == 0.0


class _NetRig:
    """A bare 2-rack cluster + armed FabricNetwork (no fn layer)."""

    def __init__(self, mode):
        self.env = Environment()
        self.cluster = Cluster(self.env, num_machines=4, num_racks=2)
        self.net = FabricNetwork(self.env, self.cluster, mode=mode)

    def send(self, src, dst, nbytes):
        """Run one transfer to completion; returns its duration."""
        start = self.env.now

        def body():
            yield from self.net.transfer(
                self.cluster.machine(src), self.cluster.machine(dst), nbytes)
            return self.env.now - start

        return self.env.run(self.env.process(body()))


class TestFabricNetwork:
    def test_unknown_mode_rejected(self):
        rig = _NetRig("flat")
        with pytest.raises(ValueError):
            FabricNetwork(rig.env, rig.cluster, mode="pfc")

    def test_loopback_costs_serialization_only(self):
        rig = _NetRig("flat")
        nbytes = 64 * params.KB
        took = rig.send(0, 0, nbytes)
        assert took == pytest.approx(params.transfer_time(nbytes, LINE))
        assert rig.net.counters["fabric.transfers"] == 0

    def test_transfer_delivers_and_conserves_bytes(self):
        rig = _NetRig("flat")
        nbytes = 128 * params.KB
        took = rig.send(0, 1, nbytes)  # cross-rack: 4 hops
        assert took >= params.transfer_time(nbytes, LINE)
        assert rig.net.counters["fabric.transfers"] == 1
        for link in rig.net.topology.path(rig.cluster.machine(0),
                                          rig.cluster.machine(1)):
            assert link.bytes_delivered == nbytes
        assert audit_fabric(rig.net) == []

    def test_tail_drop_pays_retx_penalty_but_completes(self):
        rig = _NetRig("flat")
        up, _ = rig.net.topology.host_links(0)
        up.inject_backlog(0.0, 2 * params.FABRIC_MAX_QUEUE_BYTES)
        took = rig.send(0, 2, 64 * params.KB)  # same rack
        assert rig.net.counters["fabric.drops"] >= 1
        assert rig.net.counters["fabric.retransmits"] >= 1
        assert took >= params.FABRIC_RETX_PENALTY
        assert audit_fabric(rig.net) == []

    def test_cut_path_raises_after_retry_budget(self):
        rig = _NetRig("flat")
        rig.net.cut_scope(("host", 0))

        def body():
            with pytest.raises(ConnectionError_):
                yield from rig.net.transfer(rig.cluster.machine(0),
                                            rig.cluster.machine(1),
                                            params.KB)
            return rig.env.now

        gave_up_at = rig.env.run(rig.env.process(body()))
        # One penalty per retry attempt before giving up.
        assert gave_up_at >= params.FABRIC_RETX_PENALTY * params.FABRIC_MAX_RETX
        rig.net.uncut_scope(("host", 0))
        rig.send(0, 1, params.KB)  # path healed
        assert audit_fabric(rig.net) == []

    def test_dcqcn_marks_cut_the_flow_and_pace_the_next_transfer(self):
        rig = _NetRig("dcqcn")
        up, _ = rig.net.topology.host_links(0)
        up.inject_backlog(0.0, params.FABRIC_ECN_THRESHOLD_BYTES)
        rig.send(0, 2, 64 * params.KB)
        flow = rig.net.flow(rig.cluster.machine(0), rig.cluster.machine(2))
        assert rig.net.counters["fabric.ecn_marks"] >= 1
        assert flow.marks >= 1
        assert flow.rate < flow.line_rate
        rig.send(0, 2, 64 * params.KB)
        assert rig.net.counters["fabric.paced"] >= 1

    def test_flat_mode_never_paces(self):
        rig = _NetRig("flat")
        up, _ = rig.net.topology.host_links(0)
        up.inject_backlog(0.0, params.FABRIC_ECN_THRESHOLD_BYTES)
        rig.send(0, 2, 64 * params.KB)
        rig.send(0, 2, 64 * params.KB)
        assert rig.net.counters["fabric.ecn_marks"] >= 1
        assert rig.net.counters["fabric.paced"] == 0
        flow = rig.net.flow(rig.cluster.machine(0), rig.cluster.machine(2))
        assert flow.rate == flow.line_rate

    def test_nic_hot_tracks_standing_backlog(self):
        rig = _NetRig("dcqcn")
        assert not rig.net.nic_hot(0)
        up, _ = rig.net.topology.host_links(0)
        up.inject_backlog(0.0, params.FABRIC_HOT_THRESHOLD_BYTES)
        assert rig.net.nic_hot(0)
        assert not rig.net.nic_hot(1)

    def test_saturate_degrades_then_injects_at_storm_rate(self):
        rig = _NetRig("dcqcn")
        backlog = 256 * params.KB
        rig.net.saturate(0, backlog, 8.0)
        up, down = rig.net.topology.host_links(0)
        for link in (up, down):
            assert link.rate() == pytest.approx(link.capacity / 8.0)
            # Injected after the cut: the backlog stands at full size.
            assert link.backlog(0.0) == pytest.approx(backlog)
        rig.net.unsaturate(0, 8.0)
        assert up.rate() == pytest.approx(up.capacity)

    def test_bad_fault_scope_is_loud(self):
        rig = _NetRig("flat")
        with pytest.raises(ValueError):
            rig.net.degrade_scope(("switch", 0), 2.0)

    def test_stats_shape(self):
        rig = _NetRig("dcqcn")
        rig.send(0, 1, 64 * params.KB)
        stats = rig.net.stats()
        assert stats["mode"] == "dcqcn"
        assert stats["transfers"] == 1
        assert stats["bytes_delivered"] == 4 * 64 * params.KB  # 4 links
        assert stats["flows"] == 1
        assert stats["min_flow_rate"] <= LINE


def _burst(num_forks, enable=None, seed=0):
    """A small fork burst; ``enable`` optionally arms fn layers."""
    fn = FnCluster(MitosisPolicy(), num_invokers=2, num_machines=5,
                   num_dfs_osds=2, seed=seed)
    if enable is not None:
        enable(fn)
    profile = tc0_profile()

    def setup():
        yield from fn.register(profile)

    fn.env.run(fn.env.process(setup()))
    for proc in [fn.submit(profile.name) for _ in range(num_forks)]:
        fn.env.run(proc)
    fn.env.run()
    return fn


def _trace(fn):
    return [(r.function_name, r.submitted_at, r.started_at, r.finished_at,
             r.start_kind, r.invoker_index) for r in fn.records]


class TestFnClusterFabric:
    def test_off_by_default_and_byte_identical(self, monkeypatch):
        monkeypatch.delenv("REPRO_FABRIC", raising=False)
        bare = _burst(12)
        assert bare.fabric.net is None
        # Explicitly asking with no mode and no knob stays unarmed, and
        # the event sequence is byte-identical to never asking at all.
        gated = _burst(12, enable=lambda fn: fn.enable_fabric(None))
        assert gated.fabric.net is None
        assert gated.env.events_processed == bare.env.events_processed
        assert gated.env.now == bare.env.now
        assert _trace(gated) == _trace(bare)

    def test_enable_fabric_is_idempotent(self):
        fn = FnCluster(MitosisPolicy(), num_invokers=2, num_machines=5,
                       num_dfs_osds=2, seed=0)
        net = fn.enable_fabric("flat")
        assert net is not None and net.mode == "flat"
        assert fn.enable_fabric("dcqcn") is net  # first arm wins

    def test_repro_fabric_knob_arms_cluster_wide(self, monkeypatch):
        monkeypatch.setenv("REPRO_FABRIC", "dcqcn")
        assert default_fabric_mode() == "dcqcn"
        fn = FnCluster(MitosisPolicy(), num_invokers=2, num_machines=5,
                       num_dfs_osds=2, seed=0)
        assert fn.fabric.net is not None
        assert fn.fabric.net.mode == "dcqcn"

    def test_repro_fabric_knob_spellings(self, monkeypatch):
        for raw, mode in (("", None), ("0", None), ("off", None),
                          ("1", "dcqcn"), ("flat", "flat"),
                          ("dcqcn", "dcqcn")):
            monkeypatch.setenv("REPRO_FABRIC", raw)
            assert default_fabric_mode() == mode
        monkeypatch.setenv("REPRO_FABRIC", "infiniband")
        with pytest.raises(ValueError):
            default_fabric_mode()
        assert set(FABRIC_MODES) == {"flat", "dcqcn"}

    def test_armed_burst_moves_bytes_and_audits_clean(self):
        fn = _burst(12, enable=lambda fn: fn.enable_fabric("dcqcn"))
        net = fn.fabric.net
        assert net.stats()["transfers"] > 0
        assert net.stats()["bytes_delivered"] > 0
        assert audit_fabric(net) == []

    def test_fabric_fault_without_fabric_layer_is_loud(self):
        fn = FnCluster(MitosisPolicy(), num_invokers=2, num_machines=5,
                       num_dfs_osds=2, seed=0)
        fn.enable_faults()
        with pytest.raises(RuntimeError):
            fn.faults.degrade_fabric(("host", 0), 2.0)

    def test_fault_events_reject_spine_scope(self):
        # Scopes are a host's access links or a ToR's uplink pair; the
        # spine is not a fault scope.
        with pytest.raises(ValueError):
            FabricDegrade(10.0, ("spine", 0), factor=4.0, down_for=50.0)
        with pytest.raises(ValueError):
            FabricCut(10.0, ("spine", 0), down_for=50.0)

    def test_fault_events_drive_the_armed_model(self):
        fn = FnCluster(MitosisPolicy(), num_invokers=2, num_machines=5,
                       num_dfs_osds=2, seed=0)
        fn.enable_fabric("dcqcn")
        fn.enable_faults(schedule=[
            FabricDegrade(10.0, ("tor", 0), factor=4.0, down_for=50.0),
            FabricCut(10.0, ("host", 1), down_for=50.0),
            NicSaturation(10.0, 0, backlog_bytes=64 * params.KB,
                          factor=2.0, down_for=50.0),
        ])
        net = fn.fabric.net
        tor_up, _ = net.topology.rack_links(0)
        host1_up, _ = net.topology.host_links(1)
        host0_up, _ = net.topology.host_links(0)
        seen = {}

        def probe():
            # Inside every fault window, and before the storm's 64 KB
            # burst (~10 us at the halved line rate) finishes draining.
            yield fn.env.timeout(15.0)
            seen["tor_factor"] = tor_up.degrade_factor
            seen["cut"] = host1_up.cut
            seen["storm_backlog"] = host0_up.backlog(fn.env.now)

        fn.env.run(fn.env.process(probe()))
        # Bounded run past every heal timer: the fault era's monitor
        # daemons never exit, so a full drain would spin forever.
        fn.env.run(until=120.0)
        fn.stop_fault_daemons()
        assert seen["tor_factor"] == pytest.approx(4.0)
        assert seen["cut"] == 1
        assert seen["storm_backlog"] > 0
        assert tor_up.degrade_factor == 1.0
        assert host1_up.cut == 0
        assert fn.faults.counters["fabric_degrades"] == 1
        assert fn.faults.counters["fabric_cuts"] == 1
        assert audit_fabric(net) == []


class TestIncastExperimentWiring:
    def test_incast_is_registered(self):
        from repro.experiments.__main__ import _registry
        assert "incast" in _registry(heavy=False, smoke=True)

    def test_replay_incast_tiny_contrast_counters(self, tmp_path):
        from repro.experiments import incast
        profile = tc0_profile()
        fn, records, stats = incast.replay_incast(
            profile, fabric_mode="dcqcn", topo=True, scale=0.004,
            num_invokers=2, burst_size=20)
        assert records and fn.fabric.net is not None
        assert fn.fabric.net.stats()["transfers"] > 0
        assert stats["max_queue"] >= 0
        assert audit_fabric(fn.fabric.net) == []


SCHEDULES = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=2000.0),
              st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=3),
              st.integers(min_value=1, max_value=256 * 1024)),
    min_size=1, max_size=10)


class TestCongestionControlConvergence:
    @SETTINGS
    @given(mode=st.sampled_from(FABRIC_MODES), schedule=SCHEDULES)
    def test_any_arrival_schedule_converges(self, mode, schedule):
        """Queues bounded, every transfer completes, and conservation
        holds."""
        rig = _NetRig(mode)
        env, net = rig.env, rig.net
        done = []

        def sender(delay, src, dst, nbytes):
            if delay > 0:
                yield env.timeout(delay)
            yield from net.transfer(rig.cluster.machine(src),
                                    rig.cluster.machine(dst), nbytes)
            done.append(nbytes)

        for entry in schedule:
            env.process(sender(*entry))
        env.run()

        # Every admitted transfer completes (no cuts in these schedules).
        assert len(done) == len(schedule)
        wire = [(s, d, n) for _, s, d, n in schedule if s != d]
        flows = net.flows()
        assert sum(f.bytes_sent for f in flows) == sum(n for _, _, n in wire)
        # Conservation + flow-rate bounds at quiescence.
        assert audit_fabric(net) == []
        # Queues bounded: within the tail-drop cap absent retransmits;
        # force-admitted go-back-N retries can push past it by at most
        # the bytes they carry.
        slack = (sum(n for _, _, n in wire)
                 if net.counters["fabric.retransmits"] else 0)
        for link in net.topology.links():
            assert link.peak_backlog <= params.FABRIC_MAX_QUEUE_BYTES + slack
            assert link.backlog(env.now) == pytest.approx(0.0, abs=1e-6)
        # DCQCN never pushes a marked flow below the floor or above line.
        for flow in flows:
            assert params.FABRIC_MIN_FLOW_RATE <= flow.rate <= flow.line_rate
