"""The fault injector: deterministic cluster failures as discrete events.

One :class:`FaultInjector` owns the cluster's failure state (which
machines, NICs, and links are down, and the current datagram-loss rate)
and drives :class:`~repro.faults.schedule.FaultSchedule` events.  Every
layer above consults it through cheap, zero-event queries:

* the RDMA fabric checks :meth:`path_up` / :meth:`nic_up` before moving
  bytes, and :meth:`ud_delivered` to decide a datagram's fate;
* daemons and invokers register crash/restart hooks to wipe or rebuild
  volatile per-machine state;
* long-running simulated processes register via :meth:`host_process` so a
  crash interrupts them fail-stop.

All randomness (UD drops) comes from named :class:`~repro.sim.SeededStreams`
draws, so a schedule replays bit-identically under one seed.
"""

from ..metrics import CounterSet, RecoveryLog
from ..sim import Interrupt, SeededStreams
from .schedule import (
    CpuSteal,
    FabricCut,
    FabricDegrade,
    FaultSchedule,
    LinkCut,
    LossyLink,
    MachineCrash,
    NicFlap,
    NicSaturation,
    SlowNic,
    UdDropStorm,
)


class FaultInjector:
    """Cluster-wide failure state + the schedule driver."""

    def __init__(self, env, cluster, streams=None):
        self.env = env
        self.cluster = cluster
        self.streams = streams or SeededStreams(0)
        self.counters = CounterSet()
        self.recovery = RecoveryLog("cluster-faults")
        self._down_machines = set()
        #: machine_id -> number of active port-down conditions.
        self._down_nics = {}
        #: frozenset({a, b}) -> number of active cuts.
        self._cut_links = {}
        #: Active storm drop rates (a list: storms may overlap).
        self._storm_rates = []
        #: machine_id -> list of active NIC latency multipliers (> 1).
        self._slow_nics = {}
        #: frozenset({a, b}) -> list of active (drop_rate, extra_latency).
        self._lossy_links = {}
        #: machine_id -> list of active CPU slowdown factors (> 1).
        self._cpu_steal = {}
        #: machine_id -> hosted processes (interrupted on crash), as dict
        #: keys so a crash interrupts them in hosting order; a set would
        #: order them by address and make the recovery order vary by run.
        self._hosted = {}
        self._crash_hooks = []
        self._restart_hooks = []
        self._drivers = []
        self._fabric = None

    # --- Wiring ---------------------------------------------------------------
    def install(self, fabric):
        """Attach this injector to an RDMA fabric (and return self)."""
        fabric.faults = self
        #: The fabric this injector is installed on; fabric fault events
        #: act on its (optionally armed) shared-link model.
        self._fabric = fabric
        return self

    def _fabric_net(self):
        """The armed fabricnet model, or a loud error: scheduling fabric
        faults against the point-to-point model silently does nothing,
        which is exactly the kind of quiet misconfiguration this layer
        exists to catch."""
        net = getattr(self._fabric, "net", None) if self._fabric else None
        if net is None:
            raise RuntimeError(
                "fabric fault events need the fabricnet layer armed "
                "(FnCluster.enable_fabric() or REPRO_FABRIC=flat|dcqcn)")
        return net

    def on_crash(self, hook):
        """Register ``hook(machine_id)`` to run when a machine crashes."""
        self._crash_hooks.append(hook)

    def on_restart(self, hook):
        """Register ``hook(machine_id)`` to run when a machine restarts."""
        self._restart_hooks.append(hook)

    def host_process(self, machine_id, process):
        """Tie ``process`` to a machine: a crash interrupts it fail-stop."""
        bucket = self._hosted.setdefault(machine_id, {})
        if not process.processed:
            bucket[process] = None
            process.callbacks.append(lambda _ev: bucket.pop(process, None))
        return process

    # --- State queries (zero simulated cost) -----------------------------------
    def machine_up(self, machine_id):
        """True while the machine is running."""
        return machine_id not in self._down_machines

    def nic_up(self, machine_id):
        """True while the machine's RNIC port is usable."""
        return (machine_id not in self._down_machines
                and self._down_nics.get(machine_id, 0) == 0)

    def link_up(self, machine_a, machine_b):
        """True while the path between two machines is not cut."""
        if machine_a == machine_b:
            return True
        return self._cut_links.get(frozenset((machine_a, machine_b)), 0) == 0

    def path_up(self, src_machine_id, dst_machine_id):
        """True when both endpoints' NICs are up and the link is intact."""
        return (self.nic_up(src_machine_id) and self.nic_up(dst_machine_id)
                and self.link_up(src_machine_id, dst_machine_id))

    @property
    def ud_drop_rate(self):
        """The current unreliable-datagram loss probability."""
        return max(self._storm_rates, default=0.0)

    def ud_delivered(self, src_machine_id, dst_machine_id):
        """Deterministic draw: does this datagram survive the wire?"""
        rate = self.ud_drop_rate
        lossy = self.link_drop_rate(src_machine_id, dst_machine_id)
        if lossy > 0.0:
            rate = 1.0 - (1.0 - rate) * (1.0 - lossy)
        if rate <= 0.0:
            return True
        survives = self.streams.random("ud-drop") >= rate
        if not survives:
            self.counters.incr("ud_dropped")
        return survives

    # --- Degraded-mode queries (gray failures, zero simulated cost) -------------
    def nic_slowdown(self, machine_id):
        """Latency multiplier for one machine's RNIC (1.0 when healthy)."""
        factors = self._slow_nics.get(machine_id)
        if not factors:
            return 1.0
        product = 1.0
        for factor in factors:
            product *= factor
        return product

    def path_slowdown(self, src_machine_id, dst_machine_id):
        """Latency multiplier for a path: the slower endpoint dominates."""
        if not self._slow_nics:
            return 1.0
        return max(self.nic_slowdown(src_machine_id),
                   self.nic_slowdown(dst_machine_id))

    def link_drop_rate(self, machine_a, machine_b):
        """Combined loss probability of active lossy conditions on a link."""
        if not self._lossy_links or machine_a == machine_b:
            return 0.0
        conditions = self._lossy_links.get(frozenset((machine_a, machine_b)))
        if not conditions:
            return 0.0
        deliver = 1.0
        for drop_rate, _extra in conditions:
            deliver *= 1.0 - drop_rate
        return 1.0 - deliver

    def link_extra_latency(self, machine_a, machine_b):
        """Added per-traversal latency from lossy conditions on a link."""
        if not self._lossy_links or machine_a == machine_b:
            return 0.0
        conditions = self._lossy_links.get(frozenset((machine_a, machine_b)))
        if not conditions:
            return 0.0
        return sum(extra for _rate, extra in conditions)

    def cpu_slowdown(self, machine_id):
        """Execution-slot slowdown factor for one machine (1.0 healthy)."""
        factors = self._cpu_steal.get(machine_id)
        if not factors:
            return 1.0
        product = 1.0
        for factor in factors:
            product *= factor
        return product

    @property
    def any_degraded(self):
        """True while any gray (degraded, non-fail-stop) condition holds."""
        return bool(self._slow_nics or self._lossy_links or self._cpu_steal)

    # --- Mutators ---------------------------------------------------------------
    def _mark(self, name, **attrs):
        """Drop a global timeline instant on the tracer (when tracing)."""
        tracer = self.env.tracer
        if tracer is not None and tracer.enabled:
            tracer.mark(name, **attrs)

    def crash_machine(self, machine_id):
        """Fail-stop crash: interrupt hosted processes, run crash hooks."""
        if machine_id in self._down_machines:
            return False
        self._down_machines.add(machine_id)
        self._mark("fault.machine_crash", machine=machine_id)
        self.counters.incr("machine_crashes")
        self.recovery.mark_down(("machine", machine_id), self.env.now)
        for process in list(self._hosted.get(machine_id, ())):
            if process.is_alive and process is not self.env.active_process:
                process.interrupt(MachineCrashCause(machine_id))
        for hook in self._crash_hooks:
            hook(machine_id)
        return True

    def restart_machine(self, machine_id):
        """Bring a crashed machine back (volatile state already wiped)."""
        if machine_id not in self._down_machines:
            return False
        self._down_machines.discard(machine_id)
        self._mark("fault.machine_restart", machine=machine_id)
        self.counters.incr("machine_restarts")
        for hook in self._restart_hooks:
            hook(machine_id)
        self.recovery.mark_up(("machine", machine_id), self.env.now)
        return True

    def nic_down(self, machine_id):
        """Take one machine's RNIC port down (flaps may nest)."""
        self._down_nics[machine_id] = self._down_nics.get(machine_id, 0) + 1
        self._mark("fault.nic_down", machine=machine_id)
        self.counters.incr("nic_flaps")
        self.recovery.mark_down(("nic", machine_id), self.env.now)

    def nic_restore(self, machine_id):
        """Undo one :meth:`nic_down`."""
        self._mark("fault.nic_restore", machine=machine_id)
        count = self._down_nics.get(machine_id, 0)
        if count <= 1:
            self._down_nics.pop(machine_id, None)
            self.recovery.mark_up(("nic", machine_id), self.env.now)
        else:
            self._down_nics[machine_id] = count - 1

    def cut_link(self, machine_a, machine_b):
        """Cut the path between two machines (cuts may nest)."""
        key = frozenset((machine_a, machine_b))
        self._cut_links[key] = self._cut_links.get(key, 0) + 1
        self._mark("fault.link_cut", a=machine_a, b=machine_b)
        self.counters.incr("link_cuts")

    def restore_link(self, machine_a, machine_b):
        """Undo one :meth:`cut_link`."""
        self._mark("fault.link_restore", a=machine_a, b=machine_b)
        key = frozenset((machine_a, machine_b))
        count = self._cut_links.get(key, 0)
        if count <= 1:
            self._cut_links.pop(key, None)
        else:
            self._cut_links[key] = count - 1

    def slow_nic(self, machine_id, factor):
        """Degrade one machine's RNIC by ``factor`` (conditions may nest)."""
        self._slow_nics.setdefault(machine_id, []).append(float(factor))
        self._mark("fault.slow_nic", machine=machine_id, factor=factor)
        self.counters.incr("slow_nics")
        self.recovery.mark_down(("slow-nic", machine_id), self.env.now)

    def restore_nic_speed(self, machine_id, factor):
        """Undo one :meth:`slow_nic` with the same factor."""
        factors = self._slow_nics.get(machine_id)
        if not factors:
            return
        try:
            factors.remove(float(factor))
        except ValueError:
            return
        if not factors:
            self._slow_nics.pop(machine_id, None)
            self._mark("fault.nic_speed_restored", machine=machine_id)
            self.recovery.mark_up(("slow-nic", machine_id), self.env.now)

    def make_link_lossy(self, machine_a, machine_b, drop_rate,
                        extra_latency=0.0):
        """Degrade a link; returns an opaque handle for the restore."""
        key = frozenset((machine_a, machine_b))
        condition = (float(drop_rate), float(extra_latency))
        self._lossy_links.setdefault(key, []).append(condition)
        self._mark("fault.lossy_link", a=machine_a, b=machine_b,
                   drop_rate=drop_rate)
        self.counters.incr("lossy_links")
        return (key, condition)

    def restore_link_quality(self, handle):
        """Undo one :meth:`make_link_lossy` via its handle."""
        key, condition = handle
        conditions = self._lossy_links.get(key)
        if not conditions:
            return
        try:
            conditions.remove(condition)
        except ValueError:
            return
        if not conditions:
            self._lossy_links.pop(key, None)
            self._mark("fault.link_quality_restored",
                       machines=sorted(key))

    def steal_cpu(self, machine_id, factor):
        """Slow one machine's execution slots by ``factor``."""
        self._cpu_steal.setdefault(machine_id, []).append(float(factor))
        self._mark("fault.cpu_steal", machine=machine_id, factor=factor)
        self.counters.incr("cpu_steals")

    def restore_cpu(self, machine_id, factor):
        """Undo one :meth:`steal_cpu` with the same factor."""
        factors = self._cpu_steal.get(machine_id)
        if not factors:
            return
        try:
            factors.remove(float(factor))
        except ValueError:
            return
        if not factors:
            self._cpu_steal.pop(machine_id, None)
            self._mark("fault.cpu_restored", machine=machine_id)

    def degrade_fabric(self, scope, factor):
        """Brown out the links in ``scope`` by ``factor``."""
        self._fabric_net().degrade_scope(scope, factor)
        self._mark("fault.fabric_degrade", scope="%s:%d" % scope,
                   factor=factor)
        self.counters.incr("fabric_degrades")
        self.recovery.mark_down(("fabric",) + scope, self.env.now)

    def restore_fabric(self, scope, factor):
        """Undo one :meth:`degrade_fabric` with the same factor."""
        self._fabric_net().restore_scope(scope, factor)
        self._mark("fault.fabric_restore", scope="%s:%d" % scope)
        self.recovery.mark_up(("fabric",) + scope, self.env.now)

    def cut_fabric(self, scope):
        """Cut the links in ``scope`` (cuts may nest)."""
        self._fabric_net().cut_scope(scope)
        self._mark("fault.fabric_cut", scope="%s:%d" % scope)
        self.counters.incr("fabric_cuts")
        self.recovery.mark_down(("fabric-cut",) + scope, self.env.now)

    def uncut_fabric(self, scope):
        """Undo one :meth:`cut_fabric`."""
        self._fabric_net().uncut_scope(scope)
        self._mark("fault.fabric_uncut", scope="%s:%d" % scope)
        self.recovery.mark_up(("fabric-cut",) + scope, self.env.now)

    def saturate_nic(self, machine_id, backlog_bytes, factor):
        """Start a saturation storm on one host's access links."""
        self._fabric_net().saturate(machine_id, backlog_bytes, factor)
        self._mark("fault.nic_saturation", machine=machine_id,
                   backlog=backlog_bytes, factor=factor)
        self.counters.incr("nic_saturations")
        self.recovery.mark_down(("nic-saturation", machine_id),
                                self.env.now)

    def unsaturate_nic(self, machine_id, factor):
        """End one :meth:`saturate_nic` storm (the burst drains on its
        own; only the capacity cut is undone)."""
        self._fabric_net().unsaturate(machine_id, factor)
        self._mark("fault.nic_saturation_end", machine=machine_id)
        self.recovery.mark_up(("nic-saturation", machine_id), self.env.now)

    def start_storm(self, rate):
        """Begin a UD drop storm at ``rate``; returns an opaque handle."""
        self._storm_rates.append(rate)
        self._mark("fault.ud_storm_start", rate=rate)
        self.counters.incr("ud_storms")
        return rate

    def end_storm(self, handle):
        """End one storm previously returned by :meth:`start_storm`."""
        try:
            self._storm_rates.remove(handle)
        except ValueError:
            pass
        else:
            self._mark("fault.ud_storm_end", rate=handle)

    # --- Schedule driving ----------------------------------------------------------
    def apply(self, schedule):
        """Arm a :class:`FaultSchedule` now; returns the driver processes."""
        if not isinstance(schedule, FaultSchedule):
            schedule = FaultSchedule(schedule)
        procs = [self.env.process(self._drive(event)) for event in schedule]
        self._drivers.extend(procs)
        return procs

    def stop_drivers(self):
        """Interrupt any still-pending schedule drivers."""
        for proc in self._drivers:
            if proc.is_alive and proc is not self.env.active_process:
                proc.interrupt("fault drivers stopped")
        self._drivers = []

    def _drive(self, event):
        """One schedule entry: wait, inject, (optionally) heal."""
        try:
            if event.at > 0:
                yield self.env.timeout(event.at)
            if isinstance(event, MachineCrash):
                self.crash_machine(event.machine_id)
                if event.down_for is not None:
                    yield self.env.timeout(event.down_for)
                    self.restart_machine(event.machine_id)
            elif isinstance(event, NicFlap):
                self.nic_down(event.machine_id)
                yield self.env.timeout(event.down_for)
                self.nic_restore(event.machine_id)
            elif isinstance(event, LinkCut):
                self.cut_link(event.machine_a, event.machine_b)
                yield self.env.timeout(event.down_for)
                self.restore_link(event.machine_a, event.machine_b)
            elif isinstance(event, UdDropStorm):
                handle = self.start_storm(event.rate)
                yield self.env.timeout(event.down_for)
                self.end_storm(handle)
            elif isinstance(event, SlowNic):
                self.slow_nic(event.machine_id, event.factor)
                yield self.env.timeout(event.down_for)
                self.restore_nic_speed(event.machine_id, event.factor)
            elif isinstance(event, LossyLink):
                handle = self.make_link_lossy(
                    event.machine_a, event.machine_b,
                    event.drop_rate, event.extra_latency)
                yield self.env.timeout(event.down_for)
                self.restore_link_quality(handle)
            elif isinstance(event, CpuSteal):
                self.steal_cpu(event.machine_id, event.factor)
                yield self.env.timeout(event.down_for)
                self.restore_cpu(event.machine_id, event.factor)
            elif isinstance(event, FabricDegrade):
                self.degrade_fabric(event.scope, event.factor)
                yield self.env.timeout(event.down_for)
                self.restore_fabric(event.scope, event.factor)
            elif isinstance(event, FabricCut):
                self.cut_fabric(event.scope)
                yield self.env.timeout(event.down_for)
                self.uncut_fabric(event.scope)
            elif isinstance(event, NicSaturation):
                self.saturate_nic(event.machine_id, event.backlog_bytes,
                                  event.factor)
                yield self.env.timeout(event.down_for)
                self.unsaturate_nic(event.machine_id, event.factor)
            else:  # pragma: no cover - schedule validation rejects these
                raise TypeError("unknown fault event %r" % (event,))
        except Interrupt:
            return


class MachineCrashCause:
    """The ``Interrupt.cause`` delivered to processes killed by a crash."""

    def __init__(self, machine_id):
        self.machine_id = machine_id

    def __repr__(self):
        return "<MachineCrashCause m%d>" % self.machine_id
