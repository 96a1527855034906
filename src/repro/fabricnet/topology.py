"""Clos link graph + fluid-model links with virtual-clock queues.

Each unidirectional link keeps a *busy horizon* (``busy_until``): the
simulated instant its transmit queue drains.  Admitting ``nbytes``
pushes the horizon forward by the serialization time, and the standing
backlog in bytes is just ``(busy_until - now) * rate`` — queuing delay
without modelling packets.  Conservation counters (enqueued =
delivered + dropped) feed the ``audit_fabric`` sanitizer.
"""

from .. import params


class FabricLink:
    """One unidirectional fabric link (host<->ToR or ToR<->spine)."""

    def __init__(self, name, capacity,
                 ecn_threshold=params.FABRIC_ECN_THRESHOLD_BYTES,
                 max_queue=params.FABRIC_MAX_QUEUE_BYTES):
        if capacity <= 0:
            raise ValueError("link capacity must be positive")
        self.name = name
        #: Line rate, bytes/us; ``rate()`` divides by the degrade factor.
        self.capacity = capacity
        self.ecn_threshold = ecn_threshold
        self.max_queue = max_queue
        #: Capacity divisor while a FabricDegrade / saturation storm is
        #: active; composes multiplicatively across overlapping faults.
        self.degrade_factor = 1.0
        #: Nesting count of active cuts (link down while > 0).
        self.cut = 0
        self.busy_until = 0.0
        # Conservation counters, audited by sanitizers.audit_fabric:
        # every admitted byte is eventually delivered or dropped.
        self.bytes_enqueued = 0
        self.bytes_delivered = 0
        self.bytes_dropped = 0
        self.ecn_marks = 0
        self.drops = 0
        self.peak_backlog = 0.0

    def rate(self):
        """Effective drain rate (bytes/us) under any active degrade."""
        return self.capacity / self.degrade_factor

    def backlog(self, now):
        """Standing queue, in bytes, as of ``now``."""
        if self.busy_until <= now:
            return 0.0
        return (self.busy_until - now) * self.rate()

    def admit(self, now, nbytes, force=False):
        """Charge ``nbytes`` against the link; returns a verdict tuple.

        ``(delay, marked, dropped)``: queue-wait + serialization delay
        until the last byte clears the link, whether the standing
        backlog crossed the ECN threshold, and whether the transfer
        tail-dropped (queue cap exceeded, or link cut).  ``force``
        bypasses the cap — the last go-back-N attempt of a retransmit
        loop, which must terminate.
        """
        fabric_link = self
        fabric_link.bytes_enqueued += nbytes
        if fabric_link.cut:
            fabric_link.bytes_dropped += nbytes
            fabric_link.drops += 1
            return 0.0, False, True
        rate = fabric_link.rate()
        backlog = fabric_link.backlog(now)
        depth = backlog + nbytes
        if depth > fabric_link.max_queue and not force:
            fabric_link.bytes_dropped += nbytes
            fabric_link.drops += 1
            return 0.0, False, True
        start = fabric_link.busy_until
        if start < now:
            start = now
        fabric_link.busy_until = start + nbytes / rate
        if depth > fabric_link.peak_backlog:
            fabric_link.peak_backlog = depth
        marked = depth >= fabric_link.ecn_threshold
        if marked:
            fabric_link.ecn_marks += 1
        return fabric_link.busy_until - now, marked, False

    def deliver(self, nbytes):
        """Credit ``nbytes`` admitted earlier as delivered."""
        self.bytes_delivered += nbytes

    def drop_inflight(self, nbytes):
        """Write off ``nbytes`` admitted earlier (transfer abandoned)."""
        self.bytes_dropped += nbytes

    def inject_backlog(self, now, nbytes):
        """Push the busy horizon as if ``nbytes`` of background traffic
        were queued — the seed-NIC saturation storm's burst."""
        start = self.busy_until
        if start < now:
            start = now
        self.busy_until = start + nbytes / self.rate()
        depth = self.backlog(now)
        if depth > self.peak_backlog:
            self.peak_backlog = depth

    def degrade(self, factor):
        """Divide capacity by ``factor`` (brownouts may nest)."""
        if factor <= 1.0:
            raise ValueError("degrade factor must be > 1")
        self.degrade_factor *= factor

    def restore(self, factor):
        """Undo one :meth:`degrade` with the same factor."""
        self.degrade_factor /= factor
        if self.degrade_factor < 1.0:
            self.degrade_factor = 1.0

    def cut_link(self):
        """Take the link down (cuts may nest)."""
        self.cut += 1

    def uncut_link(self):
        """Undo one :meth:`cut_link`."""
        if self.cut > 0:
            self.cut -= 1

    def __repr__(self):
        return ("FabricLink(%s, cap=%.1f B/us, backlog_peak=%.0f B)"
                % (self.name, self.capacity, self.peak_backlog))


class ClosFabricTopology:
    """Two-tier Clos: per-host access links, oversubscribed ToR uplinks.

    Every machine gets an up link (host -> ToR) and a down link
    (ToR -> host) at NIC line rate.  Every rack gets an up/down pair
    toward a single spine, sized ``hosts_per_rack * host_bw /
    oversubscription`` — the shared bottleneck cross-rack incast piles
    onto.  Same-rack paths never touch the spine.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.host_bandwidth = params.FABRIC_HOST_BANDWIDTH
        self.oversubscription = params.FABRIC_OVERSUBSCRIPTION
        self.host_up = {}
        self.host_down = {}
        self.rack_of = {}
        racks = {}
        for machine in cluster.machines:
            mid = machine.machine_id
            self.rack_of[mid] = machine.rack
            racks.setdefault(machine.rack, []).append(mid)
            self.host_up[mid] = FabricLink(
                "host-up:m%d" % mid, self.host_bandwidth)
            self.host_down[mid] = FabricLink(
                "host-down:m%d" % mid, self.host_bandwidth)
        hosts_per_rack = max(len(members) for members in racks.values())
        tor_capacity = (hosts_per_rack * self.host_bandwidth
                        / self.oversubscription)
        self.tor_up = {}
        self.tor_down = {}
        for rack in sorted(racks):
            self.tor_up[rack] = FabricLink(
                "tor-up:r%d" % rack, tor_capacity)
            self.tor_down[rack] = FabricLink(
                "tor-down:r%d" % rack, tor_capacity)

    def path(self, src_machine, dst_machine):
        """Ordered links a flow src -> dst crosses (empty = loopback)."""
        src = src_machine.machine_id
        dst = dst_machine.machine_id
        if src == dst:
            return []
        if src_machine.rack == dst_machine.rack:
            return [self.host_up[src], self.host_down[dst]]
        return [self.host_up[src],
                self.tor_up[src_machine.rack],
                self.tor_down[dst_machine.rack],
                self.host_down[dst]]

    def host_links(self, machine_id):
        """The (up, down) access-link pair of one machine."""
        return self.host_up[machine_id], self.host_down[machine_id]

    def rack_links(self, rack):
        """The (up, down) spine-facing pair of one rack's ToR."""
        return self.tor_up[rack], self.tor_down[rack]

    def links(self):
        """Every link, in a deterministic order."""
        out = []
        for mid in sorted(self.host_up):
            out.append(self.host_up[mid])
            out.append(self.host_down[mid])
        for rack in sorted(self.tor_up):
            out.append(self.tor_up[rack])
            out.append(self.tor_down[rack])
        return out
