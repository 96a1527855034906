"""DCQCN-flavored per-flow pacing and the shared-fabric transfer path.

``FabricNetwork.transfer`` is what ``RdmaFabric.stream`` defers to when
the layer is armed: the sender paces at its flow's current rate, the
bytes are charged against every link on the Clos path, and overflow is
handled the way lossy RoCE handles it — tail drop, a go-back-N
retransmission penalty, bounded retries.  ECN marks on the path feed
the flow's DCQCN state (``alpha`` up, rate cut multiplicatively);
elapsed quiet time recovers the rate additively toward line rate.
"""

from .. import params
from ..metrics import CounterSet
from ..rdma.errors import ConnectionError_
from .topology import ClosFabricTopology


class FabricFlow:
    """DCQCN rate state for one (src machine, dst machine) flow."""

    def __init__(self, key, line_rate):
        self.key = key
        self.line_rate = line_rate
        #: Current pacing rate, bytes/us; audit invariant:
        #: ``FABRIC_MIN_FLOW_RATE <= rate <= line_rate``.
        self.rate = line_rate
        #: DCQCN congestion estimate in [0, 1]; starts at 1 (the spec's
        #: init) so the first CNP halves the rate instead of shaving it.
        self.alpha = 1.0
        self.last_update = 0.0
        #: Fluid pacer: a FIFO of reserved bytes drained at ``rate``.
        #: Transfers reserve a byte position and sleep until their bytes
        #: drain, re-checking on wake — so a mid-wave rate cut slows
        #: bytes already queued behind the limiter, the way a NIC's
        #: packet pacer does.
        self.pacer_enqueued = 0.0
        self.pacer_released = 0.0
        self._pacer_at = 0.0
        self.marks = 0
        self.bytes_sent = 0

    def observe(self, now):
        """Lazy additive recovery: whole quiet periods since the last
        use raise the rate toward line rate and decay ``alpha`` —
        DCQCN's rate-increase timer without a background process."""
        elapsed = now - self.last_update
        if elapsed <= 0:
            return
        steps = int(elapsed / params.FABRIC_DCQCN_RECOVERY_PERIOD)
        if steps <= 0:
            return
        self._drain(now)
        self.last_update += steps * params.FABRIC_DCQCN_RECOVERY_PERIOD
        if self.rate < self.line_rate:
            self.rate = min(
                self.line_rate,
                self.rate + steps * params.FABRIC_DCQCN_RECOVERY_STEP)
        self.alpha *= (1.0 - params.FABRIC_DCQCN_G) ** steps

    def mark(self, now):
        """One congestion notification: raise ``alpha``, cut the rate.

        Drains the pacer at the old rate up to ``now`` first, so bytes
        already queued behind the limiter are paced at the new rate
        from this instant on — the way a NIC's packet pacer reacts to
        a CNP mid-burst.
        """
        self._drain(now)
        g = params.FABRIC_DCQCN_G
        self.alpha = (1.0 - g) * self.alpha + g
        self.rate *= (1.0 - self.alpha / 2.0)
        if self.rate < params.FABRIC_MIN_FLOW_RATE:
            self.rate = params.FABRIC_MIN_FLOW_RATE
        self.marks += 1

    def _drain(self, now):
        """Advance the pacer's released-byte counter to ``now`` at the
        current rate (piecewise-linear: callers drain before every rate
        change or query)."""
        elapsed = now - self._pacer_at
        if elapsed > 0:
            self.pacer_released = min(
                self.pacer_enqueued,
                self.pacer_released + elapsed * self.rate)
            self._pacer_at = now

    def reserve(self, now, nbytes):
        """FIFO-reserve ``nbytes`` on the pacer; returns the byte
        position the caller's transfer starts at (for :meth:`ready_in`)."""
        self._drain(now)
        position = self.pacer_enqueued
        self.pacer_enqueued += nbytes
        return position

    def ready_in(self, now, position, nbytes):
        """Time until a reservation's bytes have paced out, beyond the
        line-rate serialization the link itself will charge.  Zero for
        an unmarked flow with an idle pacer; recheck on wake — the rate
        (and so the remaining wait) may have dropped mid-sleep.
        """
        self._drain(now)
        outstanding = position + nbytes - self.pacer_released
        if outstanding <= 0:
            return 0.0
        wait = outstanding / self.rate - nbytes / self.line_rate
        # Sub-nanosecond residues are fp noise; at late sim times they
        # are below double epsilon of `now`, so sleeping on them would
        # never advance the clock (and never drain the pacer).
        if wait < 1e-3:
            return 0.0
        return wait


class FabricNetwork:
    """Front-end the RDMA layer charges transfers against when armed.

    ``mode`` selects the story the incast rig contrasts: ``"flat"``
    keeps the shared links and queue caps but no congestion control
    (drops breed retransmit storms); ``"dcqcn"`` adds the per-flow
    rate loop so marking produces backpressure before the caps hit.
    """

    def __init__(self, env, cluster, mode="dcqcn"):
        if mode not in ("flat", "dcqcn"):
            raise ValueError("unknown fabric mode %r" % (mode,))
        self.env = env
        self.mode = mode
        self.topology = ClosFabricTopology(cluster)
        self._flows = {}
        self.counters = CounterSet()

    # -- flow state -----------------------------------------------------

    def flow(self, src_machine, dst_machine):
        """The (created-on-first-use) flow state for src -> dst."""
        key = (src_machine.machine_id, dst_machine.machine_id)
        fabric_flow = self._flows.get(key)
        if fabric_flow is None:
            line = self.topology.host_up[src_machine.machine_id].capacity
            fabric_flow = FabricFlow(key, line)
            self._flows[key] = fabric_flow
        return fabric_flow

    def flows(self):
        """Every flow created so far, in a deterministic order."""
        return [self._flows[key] for key in sorted(self._flows)]

    # -- the transfer path ----------------------------------------------

    def transfer(self, src_machine, dst_machine, nbytes, extra_time=0.0):
        """Move ``nbytes`` src -> dst across the shared fabric.

        Generator (runs on the caller's process).  Raises
        :class:`ConnectionError_` when the path stays cut through the
        retry budget; tail drops inside an uncut path never raise —
        they pay go-back-N penalties and force-complete on the last
        attempt, which is what makes the flat-mode incast collapse a
        latency story rather than an error story.
        """
        env = self.env
        if nbytes <= 0:
            if extra_time > 0:
                yield env.timeout(extra_time)
            return
        path = self.topology.path(src_machine, dst_machine)
        if not path:
            # Loopback: no shared links, serialization only.
            yield env.timeout(params.transfer_time(
                nbytes, self.topology.host_bandwidth) + extra_time)
            return
        tracer = env.tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.start_span(
                "fabric.transfer", src=src_machine.machine_id,
                dst=dst_machine.machine_id, nbytes=nbytes, mode=self.mode)
        try:
            fabric_flow = self.flow(src_machine, dst_machine)
            if self.mode == "dcqcn":
                fabric_flow.observe(env.now)
                position = fabric_flow.reserve(env.now, nbytes)
                paced = False
                while True:
                    wait = fabric_flow.ready_in(env.now, position, nbytes)
                    if wait <= 0:
                        break
                    if not paced:
                        paced = True
                        self.counters.incr("fabric.paced")
                    yield env.timeout(wait)
            attempt = 0
            while True:
                if any(fabric_link.cut for fabric_link in path):
                    if attempt >= params.FABRIC_MAX_RETX:
                        raise ConnectionError_(
                            "fabric path m%d->m%d down"
                            % (src_machine.machine_id,
                               dst_machine.machine_id))
                    attempt += 1
                    self.counters.incr("fabric.retransmits")
                    yield env.timeout(params.FABRIC_RETX_PENALTY * attempt)
                    continue
                force = attempt >= params.FABRIC_MAX_RETX
                delay, marked, dropped = self._admit_path(
                    path, nbytes, force)
                if not dropped:
                    break
                # Tail drop: the sender times out, replays, and (in dcqcn
                # mode) treats the loss as the strongest congestion signal.
                self.counters.incr("fabric.drops")
                self.counters.incr("fabric.retransmits")
                if tracer is not None and tracer.enabled:
                    tracer.annotate("fabric_retx",
                                    src=src_machine.machine_id,
                                    dst=dst_machine.machine_id)
                if self.mode == "dcqcn":
                    fabric_flow.mark(env.now)
                attempt += 1
                yield env.timeout(params.FABRIC_RETX_PENALTY * attempt)
            if marked:
                self.counters.incr("fabric.ecn_marks")
                if self.mode == "dcqcn":
                    fabric_flow.mark(env.now)
            self.counters.incr("fabric.transfers")
            completed = False
            try:
                yield env.timeout(delay + extra_time)
                completed = True
            finally:
                # Interrupted mid-flight (e.g. a cancelled hedge leg)
                # counts as dropped so link conservation still balances.
                for fabric_link in path:
                    if completed:
                        fabric_link.deliver(nbytes)
                    else:
                        fabric_link.drop_inflight(nbytes)
                if completed:
                    fabric_flow.bytes_sent += nbytes
        finally:
            if span is not None:
                span.end()

    def _admit_path(self, path, nbytes, force):
        """Charge every link on ``path``; first drop aborts the walk.

        Links upstream of a drop carried the bytes to the drop point,
        so they are credited delivered immediately.  The path delay is
        the slowest link's queue-wait + serialization (the fluid flow
        pipelines across hops) plus per-hop propagation.
        """
        now = self.env.now
        delay = 0.0
        marked = False
        for index, fabric_link in enumerate(path):
            link_delay, link_marked, dropped = fabric_link.admit(
                now, nbytes, force=force)
            if dropped:
                for upstream in path[:index]:
                    upstream.deliver(nbytes)
                return 0.0, False, True
            if link_delay > delay:
                delay = link_delay
            marked = marked or link_marked
        return delay + params.FABRIC_HOP_LATENCY * len(path), marked, False

    # -- congestion queries ----------------------------------------------

    def nic_hot(self, machine_id):
        """True when either host link of ``machine_id`` has a standing
        backlog at or past the hot threshold — the pager's signal to
        defer range fetches and shed prefetch."""
        up, down = self.topology.host_links(machine_id)
        now = self.env.now
        threshold = params.FABRIC_HOT_THRESHOLD_BYTES
        return (up.backlog(now) >= threshold
                or down.backlog(now) >= threshold)

    # -- fault-injection surface (driven by repro.faults) -----------------

    def _scope_links(self, scope):
        kind, ident = scope
        if kind == "host":
            return list(self.topology.host_links(ident))
        if kind == "tor":
            return list(self.topology.rack_links(ident))
        raise ValueError("unknown fabric scope %r" % (scope,))

    def degrade_scope(self, scope, factor):
        """Brown out the links in ``scope`` by ``factor``."""
        for fabric_link in self._scope_links(scope):
            fabric_link.degrade(factor)

    def restore_scope(self, scope, factor):
        """Undo one :meth:`degrade_scope` with the same factor."""
        for fabric_link in self._scope_links(scope):
            fabric_link.restore(factor)

    def cut_scope(self, scope):
        """Cut the links in ``scope`` (cuts may nest)."""
        for fabric_link in self._scope_links(scope):
            fabric_link.cut_link()

    def uncut_scope(self, scope):
        """Undo one :meth:`cut_scope`."""
        for fabric_link in self._scope_links(scope):
            fabric_link.uncut_link()

    def saturate(self, machine_id, backlog_bytes, factor):
        """Seed-NIC saturation storm: an immediate backlog burst plus a
        capacity cut on both host links for the storm window."""
        now = self.env.now
        for fabric_link in self.topology.host_links(machine_id):
            # Degrade first so the injected backlog stands (and drains)
            # at the storm's reduced rate, not the line rate.
            fabric_link.degrade(factor)
            fabric_link.inject_backlog(now, backlog_bytes)

    def unsaturate(self, machine_id, factor):
        """End one :meth:`saturate` storm's capacity cut (the injected
        backlog drains on its own)."""
        for fabric_link in self.topology.host_links(machine_id):
            fabric_link.restore(factor)

    # -- reporting --------------------------------------------------------

    def stats(self):
        """Aggregate link/flow state for rig reports and JSON output."""
        links = self.topology.links()
        flows = self.flows()
        return {
            "mode": self.mode,
            "transfers": self.counters["fabric.transfers"],
            "retransmits": self.counters["fabric.retransmits"],
            "drops": sum(fl.drops for fl in links),
            "ecn_marks": sum(fl.ecn_marks for fl in links),
            "bytes_delivered": sum(fl.bytes_delivered for fl in links),
            "bytes_dropped": sum(fl.bytes_dropped for fl in links),
            "peak_backlog_bytes": max(
                (fl.peak_backlog for fl in links), default=0.0),
            "flows": len(flows),
            "min_flow_rate": min(
                (fw.rate for fw in flows), default=None),
        }
