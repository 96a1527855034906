"""Declarative fault schedules: what breaks, when, and for how long.

A :class:`FaultSchedule` is a validated list of fault events whose ``at``
offsets are relative to the moment the schedule is armed
(:meth:`~repro.faults.injector.FaultInjector.apply`), so the same schedule
can be replayed against any experiment timeline.  A schedule where every
event carries a finite ``down_for`` has *eventual recovery*: after
:attr:`FaultSchedule.horizon` the cluster is fully healed.
"""


class FaultEvent:
    """Base class: one scheduled fault, ``at`` microseconds after arming."""

    def __init__(self, at):
        if at < 0:
            raise ValueError("fault time must be >= 0, got %r" % (at,))
        self.at = float(at)

    @property
    def ends_at(self):
        """When the fault is fully healed (relative to arming)."""
        down_for = getattr(self, "down_for", None)
        if down_for is None:
            return float("inf")
        return self.at + down_for

    @staticmethod
    def _check_duration(down_for):
        if down_for is not None and down_for <= 0:
            raise ValueError("down_for must be > 0 or None, got %r"
                             % (down_for,))
        return None if down_for is None else float(down_for)


class MachineCrash(FaultEvent):
    """Fail-stop crash of one machine; restarts after ``down_for`` if set.

    A crash kills every process hosted on the machine, wipes its volatile
    state (descriptor tables, tmpfs images, live containers), and makes
    its NIC unreachable.  ``down_for=None`` means the machine never comes
    back.
    """

    def __init__(self, at, machine_id, down_for=None):
        super().__init__(at)
        self.machine_id = machine_id
        self.down_for = self._check_duration(down_for)

    def __repr__(self):
        return "<MachineCrash m%d at=%g down_for=%r>" % (
            self.machine_id, self.at, self.down_for)


class NicFlap(FaultEvent):
    """RNIC port down/up on one machine; the host itself keeps running."""

    def __init__(self, at, machine_id, down_for):
        super().__init__(at)
        self.machine_id = machine_id
        self.down_for = self._check_duration(down_for)
        if self.down_for is None:
            raise ValueError("a NIC flap needs a finite down_for")

    def __repr__(self):
        return "<NicFlap m%d at=%g down_for=%g>" % (
            self.machine_id, self.at, self.down_for)


class LinkCut(FaultEvent):
    """Bidirectional loss of the path between two machines (partition)."""

    def __init__(self, at, machine_a, machine_b, down_for):
        super().__init__(at)
        if machine_a == machine_b:
            raise ValueError("cannot cut a machine's link to itself")
        self.machine_a = machine_a
        self.machine_b = machine_b
        self.down_for = self._check_duration(down_for)
        if self.down_for is None:
            raise ValueError("a link cut needs a finite down_for")

    def __repr__(self):
        return "<LinkCut m%d-m%d at=%g down_for=%g>" % (
            self.machine_a, self.machine_b, self.at, self.down_for)


class UdDropStorm(FaultEvent):
    """Cluster-wide unreliable-datagram loss at ``rate`` for a while."""

    def __init__(self, at, rate, down_for):
        super().__init__(at)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("drop rate must be in [0, 1], got %r" % (rate,))
        self.rate = float(rate)
        self.down_for = self._check_duration(down_for)
        if self.down_for is None:
            raise ValueError("a UD drop storm needs a finite down_for")

    def __repr__(self):
        return "<UdDropStorm rate=%.2f at=%g down_for=%g>" % (
            self.rate, self.at, self.down_for)


class SlowNic(FaultEvent):
    """Degraded (gray) mode: one RNIC processes at ``factor`` x latency.

    The NIC stays *up* — heartbeats answer, reads complete — but every
    latency-bound operation through it is multiplied by ``factor``.  This
    is the gray failure binary health checks cannot see: the paper's
    fallback paths assume fail-stop, while a slow-but-alive RNIC stalls
    every remote page fault without tripping any liveness test.
    """

    def __init__(self, at, machine_id, factor, down_for):
        super().__init__(at)
        self.machine_id = machine_id
        if factor <= 1.0:
            raise ValueError("a slow NIC needs factor > 1, got %r" % (factor,))
        self.factor = float(factor)
        self.down_for = self._check_duration(down_for)
        if self.down_for is None:
            raise ValueError("a slow NIC needs a finite down_for")

    def __repr__(self):
        return "<SlowNic m%d x%g at=%g down_for=%g>" % (
            self.machine_id, self.factor, self.at, self.down_for)


class LossyLink(FaultEvent):
    """Degraded link: probabilistic loss + elevated latency, not a cut.

    Datagrams (UD) are dropped at ``drop_rate``; reliable transports
    (RC/DC) instead pay retransmissions — each packet re-draws at
    ``drop_rate`` and adds a retransmit penalty until it gets through.
    ``extra_latency`` is added to every traversal in both directions.
    """

    def __init__(self, at, machine_a, machine_b, drop_rate,
                 extra_latency=0.0, down_for=None):
        super().__init__(at)
        if machine_a == machine_b:
            raise ValueError("cannot degrade a machine's link to itself")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError("lossy drop rate must be in [0, 1), got %r"
                             % (drop_rate,))
        if extra_latency < 0.0:
            raise ValueError("extra latency must be >= 0, got %r"
                             % (extra_latency,))
        self.machine_a = machine_a
        self.machine_b = machine_b
        self.drop_rate = float(drop_rate)
        self.extra_latency = float(extra_latency)
        self.down_for = self._check_duration(down_for)
        if self.down_for is None:
            raise ValueError("a lossy link needs a finite down_for")

    def __repr__(self):
        return "<LossyLink m%d-m%d p=%.2f +%gus at=%g down_for=%g>" % (
            self.machine_a, self.machine_b, self.drop_rate,
            self.extra_latency, self.at, self.down_for)


class CpuSteal(FaultEvent):
    """Degraded execution: one machine's cores run ``factor`` x slower.

    Models a noisy neighbour / throttled host stealing cycles from the
    invoker's execution slots; starts complete, just late.
    """

    def __init__(self, at, machine_id, factor, down_for):
        super().__init__(at)
        self.machine_id = machine_id
        if factor <= 1.0:
            raise ValueError("cpu steal needs factor > 1, got %r" % (factor,))
        self.factor = float(factor)
        self.down_for = self._check_duration(down_for)
        if self.down_for is None:
            raise ValueError("cpu steal needs a finite down_for")

    def __repr__(self):
        return "<CpuSteal m%d x%g at=%g down_for=%g>" % (
            self.machine_id, self.factor, self.at, self.down_for)


def _check_fabric_scope(scope):
    """Validate a fabric scope tuple: ``("host", machine_id)`` degrades
    one machine's access links, ``("tor", rack)`` the rack's spine
    uplink/downlink pair."""
    if (not isinstance(scope, tuple) or len(scope) != 2
            or scope[0] not in ("host", "tor")):
        raise ValueError(
            "fabric scope must be ('host', machine_id) or ('tor', rack), "
            "got %r" % (scope,))
    return (scope[0], int(scope[1]))


class FabricDegrade(FaultEvent):
    """Fabric brownout: the links in ``scope`` run at ``1/factor`` of
    their capacity for a window — queueing delay and ECN marking rise
    without any component going *down*.  Requires the fabric layer to
    be armed (``FnCluster.enable_fabric``); injecting it against a
    point-to-point fabric is a configuration error, reported loudly.
    """

    def __init__(self, at, scope, factor, down_for):
        super().__init__(at)
        self.scope = _check_fabric_scope(scope)
        if factor <= 1.0:
            raise ValueError("fabric degrade needs factor > 1, got %r"
                             % (factor,))
        self.factor = float(factor)
        self.down_for = self._check_duration(down_for)
        if self.down_for is None:
            raise ValueError("a fabric degrade needs a finite down_for")

    def __repr__(self):
        return "<FabricDegrade %s:%d x%g at=%g down_for=%g>" % (
            self.scope[0], self.scope[1], self.factor, self.at,
            self.down_for)


class FabricCut(FaultEvent):
    """Hard loss of the links in ``scope`` (ToR uplink cut isolates the
    rack from the spine; host cut isolates one machine).  Transfers
    crossing a cut link pay bounded retransmit penalties, then fail
    with ``ConnectionError_`` — the fail-stop half of the fabric fault
    taxonomy."""

    def __init__(self, at, scope, down_for):
        super().__init__(at)
        self.scope = _check_fabric_scope(scope)
        self.down_for = self._check_duration(down_for)
        if self.down_for is None:
            raise ValueError("a fabric cut needs a finite down_for")

    def __repr__(self):
        return "<FabricCut %s:%d at=%g down_for=%g>" % (
            self.scope[0], self.scope[1], self.at, self.down_for)


class NicSaturation(FaultEvent):
    """Seed-NIC saturation storm: background traffic slams one host's
    access links — an immediate ``backlog_bytes`` burst plus a
    ``factor`` capacity cut for the window.  The incast analogue of a
    gray failure: the NIC answers, it is just drowning."""

    def __init__(self, at, machine_id, backlog_bytes, factor, down_for):
        super().__init__(at)
        self.machine_id = machine_id
        if backlog_bytes < 0:
            raise ValueError("saturation backlog must be >= 0, got %r"
                             % (backlog_bytes,))
        if factor <= 1.0:
            raise ValueError("saturation needs factor > 1, got %r"
                             % (factor,))
        self.backlog_bytes = int(backlog_bytes)
        self.factor = float(factor)
        self.down_for = self._check_duration(down_for)
        if self.down_for is None:
            raise ValueError("a NIC saturation storm needs a finite down_for")

    def __repr__(self):
        return "<NicSaturation m%d +%dB x%g at=%g down_for=%g>" % (
            self.machine_id, self.backlog_bytes, self.factor, self.at,
            self.down_for)


class FaultSchedule:
    """An immutable, validated collection of fault events."""

    def __init__(self, events):
        events = list(events)
        for event in events:
            if not isinstance(event, FaultEvent):
                raise TypeError("not a FaultEvent: %r" % (event,))
        self.events = tuple(sorted(events, key=lambda e: e.at))

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon(self):
        """Relative time after which every fault has healed (inf if never)."""
        return max((e.ends_at for e in self.events), default=0.0)

    @property
    def eventually_recovers(self):
        """True if every fault heals (finite horizon)."""
        return self.horizon != float("inf")

    def __repr__(self):
        return "<FaultSchedule %d events horizon=%g>" % (
            len(self.events), self.horizon)
