"""The Fn platform: load balancer + invokers over the full substrate stack.

One :class:`FnCluster` assembles everything an experiment needs — cluster,
RDMA fabric, kernels, runtimes, the MITOSIS deployment, the DFS — and runs
invocations under a chosen start policy.  This mirrors Fig. 9: load
balancers (machines without RNICs in the paper's testbed) dispatch to 18
RDMA-capable invokers.
"""

from .. import params
from ..cluster import Cluster
from ..connplane import default_connplane
from ..containers import ContainerRuntime
from ..core import MitosisDeployment
from ..dfs import CephLikeDfs
from ..fabricnet import default_fabric_mode
from ..faults.errors import AdmissionShed, DeadlineExceeded, FaultError
from ..kernel import Kernel
from ..lineage import default_seed_replicas
from ..metrics import CounterSet, RecoveryLog, TimeSeries
from ..rdma import ConnectionError_, RdmaFabric, RpcError, RpcRuntime
from ..rdma.rpc import RpcTimeout
from ..sim import Environment, Interrupt, SeededStreams
from ..trace.tracer import maybe_install
from ..workloads import execute
from .functions import FnFunction, InvocationRecord
from .health import HealthMonitor
from .invoker import Invoker


class ResilienceConfig:
    """Knobs for the gray-failure layer (see :meth:`FnCluster.enable_resilience`)."""

    def __init__(self, deadline):
        #: End-to-end invocation deadline (relative, sim us), or None.
        self.deadline = deadline


class FnCluster:
    """A complete serverless deployment under one start policy."""

    def __init__(self, policy, num_invokers=params.NUM_INVOKERS,
                 num_machines=params.NUM_MACHINES, num_dfs_osds=2,
                 seed=0, enable_sharing=True, transport="dct",
                 prefetch_depth=0, batch_pages=None):
        if num_machines < num_invokers + num_dfs_osds:
            raise ValueError(
                "%d machines cannot host %d invokers + %d OSDs"
                % (num_machines, num_invokers, num_dfs_osds))
        self.env = Environment()
        self.policy = policy
        self.streams = SeededStreams(seed)
        self.cluster = Cluster(self.env, num_machines=num_machines)
        self.fabric = RdmaFabric(self.env, self.cluster)
        self.rpc = RpcRuntime(self.env, self.fabric, streams=self.streams)
        self.kernels = [Kernel(self.env, m) for m in self.cluster]
        self.runtimes = [ContainerRuntime(self.env, k) for k in self.kernels]

        invoker_machines, other = self.cluster.split_roles(num_invokers)
        self.invokers = [
            Invoker(self.env, self.runtimes[m.machine_id], index)
            for index, m in enumerate(invoker_machines)
        ]
        osd_machines = other[:num_dfs_osds]
        spares = other[num_dfs_osds:]
        #: Where the LB (and its health monitor) runs RPC from: the first
        #: non-invoker, non-OSD machine, sharing if the cluster is tight.
        self.lb_machine = (spares[0] if spares
                           else other[0] if other
                           else invoker_machines[0])
        self.dfs = CephLikeDfs(self.env, self.fabric, osd_machines)
        self.deployment = MitosisDeployment(
            self.env, self.cluster, self.fabric, self.rpc,
            [inv.runtime for inv in self.invokers],
            enable_sharing=enable_sharing, transport=transport,
            prefetch_depth=prefetch_depth, batch_pages=batch_pages)

        self.functions = {}
        self.records = []
        self._next_rr = 0
        #: None until :meth:`enable_faults`; every fault check in the
        #: invocation path is gated on this so the fail-free path is
        #: byte-identical to the seed behaviour.
        self.faults = None
        self.monitor = None
        #: None until :meth:`enable_resilience`; gates the gray-failure
        #: layer (deadlines, retry budgets, shedding, suspicion placement)
        #: the same way ``faults`` gates fail-stop handling.
        self.resilience = None
        #: None until :meth:`enable_lineage` arms seed replication +
        #: generation fencing; with it None the fail-free event sequence
        #: stays byte-identical to the seed (repo-wide invariant).
        self.lineage = None
        #: None until :meth:`enable_connplane` arms the RDMA connection
        #: control plane (QP pooling + advert pushes); same invariant.
        self.connplane = None
        #: Every InvocationContext minted (resilience only) — the
        #: sanitizer audits retry-budget conservation over these.
        self.contexts = []
        self.counters = CounterSet()
        self.recovery = RecoveryLog("fn-recovery")
        #: Installed from REPRO_TRACE=1 (else None unless a Tracer is
        #: constructed against this cluster's env explicitly).
        self.tracer = maybe_install(self.env)
        self._invocation_seq = 0
        # Shared-fabric model rides the same env-knob pattern as
        # replication and batching: REPRO_FABRIC arms it cluster-wide
        # without code changes, unset leaves fabric.net None and the
        # event sequence byte-identical to the seed.
        if default_fabric_mode() is not None:
            self.enable_fabric()
        # The connection control plane rides the same pattern:
        # REPRO_CONNPLANE=1 arms QP pooling + advert distribution; unset
        # leaves connplane None everywhere and behaviour byte-identical.
        if default_connplane():
            self.enable_connplane()

    # --- Registration ------------------------------------------------------------
    def register(self, profile):
        """Register a function and run the policy's provisioning.  Generator."""
        function = FnFunction(profile)
        if function.name in self.functions:
            raise ValueError("function %r already registered" % function.name)
        self.functions[function.name] = function
        yield from self.policy.provision(self, function)
        return function

    # --- Invocation ---------------------------------------------------------------
    def invoke(self, name):
        """One end-to-end invocation.  Generator -> InvocationRecord.

        Fail-free (no injector installed), this is a single dispatch with
        the seed repo's exact event sequence.  With faults armed, the LB
        re-admits the invocation: an invoker crash (fail-stop Interrupt),
        a dead/undetected invoker, or a typed fault error re-dispatches to
        a surviving invoker with backoff, up to
        :data:`~repro.params.FN_INVOKE_MAX_ATTEMPTS` attempts.  Exhaustion
        yields a loud ``outcome="lost"`` record — never a silent hang.

        With :meth:`enable_resilience` armed the invocation additionally
        carries an end-to-end deadline and a shared retry budget: requests
        that would miss the deadline are shed *while queued* (bounded
        admission waits), every retry at any layer debits the one budget,
        and exhaustion of either produces a typed ``outcome="shed"``
        record instead of late work.
        """
        function = self.functions[name]
        submitted_at = self.env.now
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled:
            # The one root per invocation: everything below — dispatch,
            # admission, fork, paging, individual verbs — hangs off it.
            self._invocation_seq += 1
            span = tracer.start_span("invocation", root=True,
                                     function=name,
                                     invocation=self._invocation_seq)
        try:
            ctx = None
            if self.resilience is not None:
                from ..resilience import InvocationContext, RetryBudget
                ctx = InvocationContext(
                    submitted_at,
                    deadline_at=(
                        None if self.resilience.deadline is None
                        else submitted_at + self.resilience.deadline),
                    retry_budget=RetryBudget(params.FN_RETRY_BUDGET))
                self.contexts.append(ctx)
            max_attempts = (
                1 if self.faults is None and self.resilience is None
                else params.FN_INVOKE_MAX_ATTEMPTS)
            excluded = set()
            for attempt in range(1, max_attempts + 1):
                if attempt > 1:
                    if ctx is not None:
                        # A re-dispatch is a retry like any other: it must
                        # be paid for, and never launched past the deadline.
                        if ctx.expired(self.env.now):
                            return self._shed(name, submitted_at,
                                              attempt - 1, "deadline_shed")
                        if (ctx.retry_budget is not None
                                and not ctx.retry_budget.try_spend(
                                    1, label="lb-redispatch")):
                            return self._shed(name, submitted_at,
                                              attempt - 1,
                                              "retry_budget_exhausted")
                    yield self.env.timeout(
                        params.FN_READMIT_BACKOFF * (2 ** (attempt - 2)))
                dspan = None
                if span is not None:
                    dspan = tracer.start_span("lb.dispatch", attempt=attempt)
                try:
                    yield self.env.timeout(params.LB_DISPATCH_LATENCY)
                    invoker = self._pick_invoker(function, exclude=excluded)
                    if dspan is not None:
                        dspan.set(invoker=invoker.index)
                finally:
                    if dspan is not None:
                        dspan.end()
                if self.faults is not None and not invoker.alive:
                    # Dead but not yet detected by the health monitor: the
                    # dispatch RPC would never be answered — burn the
                    # dispatch timeout, then steer away from this invoker.
                    yield self.env.timeout(params.FN_DISPATCH_TIMEOUT)
                    self.counters.incr("dispatch_timeouts")
                    if span is not None:
                        span.event("dispatch_timeout", invoker=invoker.index)
                    excluded.add(invoker.index)
                    continue
                invoker.outstanding += 1
                try:
                    if self.faults is None:
                        result = yield from self._run_on_invoker(
                            invoker, function, ctx)
                    else:
                        proc = self.env.process(
                            self._run_on_invoker(invoker, function, ctx))
                        self.faults.host_process(
                            invoker.machine.machine_id, proc)
                        result = yield proc
                except Interrupt:
                    # The invoker's machine crashed mid-run (fail-stop).
                    self.counters.incr("invocations_interrupted")
                    excluded.add(invoker.index)
                    continue
                except AdmissionShed:
                    # Shed while queued: the health monitor re-routed work
                    # off this (suspect) invoker — steer elsewhere
                    # immediately.
                    self.counters.incr("admission_shed")
                    excluded.add(invoker.index)
                    continue
                except DeadlineExceeded:
                    return self._shed(name, submitted_at, attempt,
                                      "deadline_shed")
                except (FaultError, RpcError, RpcTimeout,
                        ConnectionError_):
                    if self.faults is None and self.resilience is None:
                        raise
                    # A typed failure below us (dead parent, expired lease,
                    # lost seed...).  The invoker itself is fine — retry,
                    # giving the recovery paths underneath another shot.
                    self.counters.incr("invocation_faults")
                    if ctx is not None and ctx.expired(self.env.now):
                        return self._shed(name, submitted_at, attempt,
                                          "deadline_shed")
                    continue
                finally:
                    invoker.outstanding -= 1
                started_at, finished_at, start_kind = result
                record = InvocationRecord(
                    name, submitted_at, started_at, finished_at, start_kind,
                    invoker.index,
                    outcome="ok" if attempt == 1 else "recovered",
                    attempts=attempt)
                if attempt > 1:
                    self.counters.incr("invocations_recovered")
                self.records.append(record)
                if span is not None:
                    span.set(outcome=record.outcome, attempts=attempt,
                             start_kind=start_kind)
                return record
            # Every attempt failed: record the loss loudly.  The record has
            # zero-width start/finish stamps and is kept out of the latency
            # percentiles (a lost invocation has no latency).
            self.counters.incr("invocations_lost")
            record = InvocationRecord(
                name, submitted_at, self.env.now, self.env.now, "none",
                -1, outcome="lost", attempts=max_attempts)
            self.records.append(record)
            if span is not None:
                span.set(outcome="lost", attempts=max_attempts)
            return record
        finally:
            if span is not None:
                span.end()

    def _shed(self, name, submitted_at, attempts, counter):
        """Record a load-shed invocation (typed and counted, never silent).

        Like lost records, shed records carry zero-width stamps and stay
        out of the latency percentiles — a shed invocation has no latency.
        """
        self.counters.incr(counter)
        tracer = self.env.tracer
        if tracer is not None and tracer.enabled:
            tracer.annotate("shed", reason=counter)
        record = InvocationRecord(
            name, submitted_at, self.env.now, self.env.now, "none",
            -1, outcome="shed", attempts=max(attempts, 1))
        self.records.append(record)
        return record

    def _run_on_invoker(self, invoker, function, ctx=None):
        """One dispatch attempt on one invoker.  Generator returning
        ``(started_at, finished_at, start_kind)``.

        Exactly the seed's admission -> start -> cores -> execute ->
        finish sequence.  Under faults this runs as a *hosted* process on
        the invoker's machine, so a crash interrupts it fail-stop; the
        interrupt skips container cleanup (the crash wipe owns that).
        """
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.start_span("invoker.run", invoker=invoker.index,
                                     machine=invoker.machine.machine_id)
        try:
            aspan = None
            if span is not None:
                aspan = tracer.start_span("invoker.admission")
            try:
                if self.resilience is None:
                    yield invoker.admission.acquire()
                else:
                    yield from self._admit_bounded(invoker, ctx)
            finally:
                if aspan is not None:
                    aspan.end()
            container = None
            try:
                try:
                    sspan = None
                    if span is not None:
                        sspan = tracer.start_span("fn.start")
                    try:
                        container, start_kind = yield from self.policy.start(
                            self, invoker, function)
                        if sspan is not None:
                            sspan.set(start_kind=start_kind)
                    finally:
                        if sspan is not None:
                            sspan.end()
                    if ctx is not None and container is not None:
                        # Ride the context down the stack: the pager reads
                        # it off the task to clamp fallback deadlines and
                        # charge fetch retries to the shared budget.
                        container.task.resilience_ctx = ctx
                    started_at = self.env.now
                    espan = None
                    if span is not None:
                        espan = tracer.start_span("fn.execute")
                    try:
                        yield invoker.machine.cores.acquire()
                        try:
                            execute_from = self.env.now
                            yield from execute(self.env, container,
                                               function.profile)
                            if self.faults is not None:
                                steal = self.faults.cpu_slowdown(
                                    invoker.machine.machine_id)
                                if steal > 1.0:
                                    # Stolen cycles stretch the burst that
                                    # just ran.
                                    yield self.env.timeout(
                                        (self.env.now - execute_from)
                                        * (steal - 1.0))
                        finally:
                            invoker.machine.cores.release()
                    finally:
                        if espan is not None:
                            espan.end()
                    finished_at = self.env.now
                    fspan = None
                    if span is not None:
                        fspan = tracer.start_span("fn.finish")
                    try:
                        yield from self.policy.finish(self, invoker,
                                                      function, container)
                    finally:
                        if fspan is not None:
                            fspan.end()
                except Interrupt:
                    raise  # crash wipe already destroyed the container
                except BaseException:
                    if (self.faults is not None and container is not None
                            and container in invoker.live_containers):
                        if container.task.state != "dead":
                            invoker.destroy(container)
                        else:
                            invoker.untrack(container)
                    raise
            finally:
                invoker.admission.release()
            return started_at, finished_at, start_kind
        finally:
            if span is not None:
                span.end()

    def _admit_bounded(self, invoker, ctx):
        """Wait for an admission slot — but not forever.  Generator.

        The seed's FIFO admission wait had no bound: requests queued
        behind a gray (slow-but-alive) invoker sat until it drained.
        Here the grant races the invoker's *reroute* broadcast (opened by
        the health monitor on suspicion or eviction) and the invocation
        deadline; losing the race sheds the queued request with a typed
        error instead of running it late.
        """
        # The grant's release stays with the caller (`_run_on_invoker`).
        grant = invoker.admission.acquire()  # reprolint: disable=acquire-release-balance
        rerouted = invoker.reroute.wait()
        race = [grant, rerouted]
        timer = None
        if ctx is not None and ctx.deadline_at is not None:
            timer = self.env.timeout(max(ctx.remaining(self.env.now), 0.0))
            race.append(timer)
        yield self.env.any_of(race)
        if grant.triggered:
            invoker.reroute.cancel(rerouted)
            return
        grant._abandon(grant)  # give our queue spot (or unclaimed slot) back
        invoker.reroute.cancel(rerouted)
        # (Timeouts are born `triggered`; `processed` is the fired test.)
        if timer is not None and timer.processed:
            raise DeadlineExceeded(
                "queued on invoker %d past the invocation deadline"
                % invoker.index)
        raise AdmissionShed(
            "re-routed off suspect invoker %d while queued" % invoker.index)

    def submit(self, name):
        """Fire-and-forget invocation; returns the Process event."""
        return self.env.process(self.invoke(name))

    def replay(self, name, arrival_times):
        """Replay a trace: submit ``name`` at each timestamp.  Generator
        returning all invocation records, after every one completes."""
        procs = []

        def _arrival_driver():
            last = self.env.now
            for at in arrival_times:
                if at > last:
                    yield self.env.timeout(at - last)
                    last = at
                procs.append(self.submit(name))

        driver = self.env.process(_arrival_driver())
        yield driver
        for proc in procs:
            yield proc
        return self.records

    # --- Placement -------------------------------------------------------------------
    def _pick_invoker(self, function, exclude=()):
        """Least-loaded admitting invoker (round-robin tiebreak).

        ``exclude`` holds invoker indices this invocation already failed
        on; non-admitting invokers (health monitor took them out) are
        skipped too, falling back to the full set only when nothing else
        is left.  Fail-free both filters are no-ops.
        """
        candidates = [i for i in self.invokers
                      if i.admitting and i.index not in exclude]
        if not candidates:
            candidates = [i for i in self.invokers
                          if i.index not in exclude]
        if not candidates:
            candidates = self.invokers
        preferred = self.policy.prefer_invoker(self, function, candidates)
        if preferred is not None:
            return preferred
        if self.resilience is None:
            def load(invoker):
                return invoker.outstanding
        else:
            # Suspicion biases placement away from gray invokers without
            # the binary eviction a slow-but-alive machine never earns.
            def load(invoker):
                return (invoker.outstanding + invoker.suspicion
                        * params.FN_SUSPICION_LOAD_PENALTY)
        lowest = min(load(i) for i in candidates)
        tied = [i for i in candidates if load(i) == lowest]
        choice = tied[self._next_rr % len(tied)]
        self._next_rr += 1
        return choice

    # --- Fault wiring ----------------------------------------------------------------
    def enable_faults(self, schedule=None):
        """Install a :class:`FaultInjector` and arm every layer.

        Wires crash/restart hooks for each invoker, connects the MITOSIS
        deployment (deadlines, leases and their renewal daemons), starts
        the LB health monitor, and optionally applies a
        :class:`~repro.faults.FaultSchedule`.
        Idempotent apart from ``schedule``, which arms on every call.
        Returns the injector.
        """
        if self.faults is None:
            from ..faults import FaultInjector
            self.faults = FaultInjector(self.env, self.cluster,
                                        streams=self.streams)
            self.faults.install(self.fabric)
            for invoker in self.invokers:
                self._wire_invoker_hooks(invoker)
            self.deployment.connect_faults(self.faults, lease_daemons=True)
            self.monitor = HealthMonitor(self)
            self.monitor.start()
            # Lineage fault tolerance rides the fault era: arm it here so
            # REPRO_SEED_REPLICAS=K works without code changes.  With the
            # default (0 replicas) this is a no-op and the event sequence
            # stays byte-identical.
            self.enable_lineage()
        if schedule is not None:
            self.faults.apply(schedule)
        return self.faults

    def enable_fabric(self, mode=None):
        """Arm the shared-fabric model (``repro.fabricnet``).

        ``mode`` is ``"flat"`` (Clos links + queues, no congestion
        control) or ``"dcqcn"`` (adds the per-flow rate loop); it
        defaults to ``REPRO_FABRIC`` from the environment.  With the
        knob unset nothing is armed and every RDMA transfer keeps the
        seed's point-to-point cost model, byte-identically.  Idempotent;
        returns the :class:`~repro.fabricnet.FabricNetwork` (or None).
        """
        if self.fabric.net is not None:
            return self.fabric.net
        if mode is None:
            mode = default_fabric_mode()
        if mode is None:
            return None
        from ..fabricnet import FabricNetwork
        self.fabric.net = FabricNetwork(self.env, self.cluster, mode=mode)
        return self.fabric.net

    def enable_connplane(self):
        """Arm the RDMA connection control plane (``repro.connplane``).

        Installs one :class:`~repro.connplane.ConnPlane` over the MITOSIS
        deployment: per-machine warm RC QP pools with doorbell-batched
        lazy creation, plus advertisement pushes that hand likely
        invokers the seed's descriptor + DCT keys ahead of demand (on
        registration/re-election, piggybacked on LB heartbeats).
        Defaults to ``REPRO_CONNPLANE`` from the environment; without
        this call every hook stays None and the event sequence is
        byte-identical to the seed.  Idempotent; returns the plane.
        """
        if self.connplane is None:
            from ..connplane import ConnPlane
            self.connplane = ConnPlane(self.env, self.deployment, self.rpc)
            self.connplane.attach_invokers(lambda: self.invokers)
        return self.connplane

    def enable_resilience(self, deadline=params.FN_INVOCATION_DEADLINE):
        """Arm the gray-failure & overload layer; returns the config.

        Every invocation then carries an
        :class:`~repro.resilience.InvocationContext` (end-to-end
        ``deadline`` + a retry budget of
        :data:`~repro.params.FN_RETRY_BUDGET`) down through admission,
        paging, and RPC; admission waits become bounded; the pager's RPC
        fallback gains per-peer circuit breakers and its DCT reads gain
        hedging; the health monitor scores EWMA ping latency into
        placement suspicion.  Pass ``deadline=None`` to disable the
        deadline.  Without this call behaviour is byte-identical to the
        seed.
        """
        if self.resilience is None:
            self.resilience = ResilienceConfig(deadline)
            self.deployment.enable_resilience()
        return self.resilience

    def enable_lineage(self, replicas=None):
        """Arm seed lineage fault tolerance (``repro.lineage``).

        ``replicas`` is the target replica count per seed (K-way
        replication); it defaults to ``REPRO_SEED_REPLICAS`` from the
        environment (else :data:`~repro.params.LINEAGE_SEED_REPLICAS_DEFAULT`).
        With ``replicas <= 0`` nothing is armed and behaviour stays
        byte-identical to the seed.  Requires :meth:`enable_faults` first —
        lineage is a fault-era layer (promotions and fencing only matter
        when seeds can die).  Idempotent; returns the runtime (or None).
        """
        if self.lineage is not None:
            return self.lineage
        if replicas is None:
            replicas = default_seed_replicas()
        if replicas <= 0:
            return None
        if self.faults is None:
            raise RuntimeError(
                "enable_lineage() requires enable_faults() first")
        from ..lineage import LineageRuntime
        self.lineage = LineageRuntime(self, replicas)
        for node in self.deployment.nodes():
            node.pager.lineage = self.lineage
        return self.lineage

    def _wire_invoker_hooks(self, invoker):
        mid = invoker.machine.machine_id

        def on_crash(machine_id):
            if machine_id == mid:
                invoker.on_machine_crash()
                self.policy.on_invoker_lost(self, invoker)

        def on_restart(machine_id):
            if machine_id == mid:
                invoker.on_machine_restart()

        self.faults.on_crash(on_crash)
        self.faults.on_restart(on_restart)

    def stop_fault_daemons(self):
        """Stop every background fault-era process (health monitor, lease
        daemons, pending schedule drivers) so the event loop can drain."""
        if self.monitor is not None:
            self.monitor.stop()
        if self.lineage is not None:
            self.lineage.stop()
        self.deployment.stop_fault_daemons()
        if self.faults is not None:
            self.faults.stop_drivers()

    # --- Metrics --------------------------------------------------------------------
    def start_memory_sampler(self, period=5 * params.SEC):
        """Start a background process sampling total invoker memory.

        Returns the :class:`TimeSeries` it fills (stop via the returned
        process if needed; it runs until the simulation ends).
        """
        series = TimeSeries("invoker-memory")

        def _sampler():
            while True:
                total = sum(i.memory_bytes() for i in self.invokers)
                series.sample(self.env.now, total)
                yield self.env.timeout(period)

        process = self.env.process(_sampler())
        return series, process

    def invoker_for_machine(self, machine):
        """The invoker hosted on ``machine``; raises if none."""
        for invoker in self.invokers:
            if invoker.machine.machine_id == machine.machine_id:
                return invoker
        raise ValueError("%r is not an invoker" % (machine,))
