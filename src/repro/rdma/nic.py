"""The RNIC: queue pairs, DC targets, memory regions, link serialization.

Creation-rate limits matter as much as wire speed in this paper: a machine
can only create ~700 RC queue pairs per second (§4.2), which is precisely
what caps the "base" design in the factor analysis (Fig. 15 b).
"""

from .. import params
from ..metrics import CounterSet
from ..sim import Resource
from .dct import DcTarget, DcTargetPool
from .mr import MrTable
from .qp import DcQp, RcQp


class Rnic:
    """One machine's RDMA NIC."""

    def __init__(self, env, machine, fabric):
        self.env = env
        self.machine = machine
        self.fabric = fabric
        #: When the outbound link (the contended direction) next falls
        #: idle: :meth:`occupy` serves transfers on it FCFS.
        self.free_at = 0.0
        #: RCQP creation is serialized and rate-limited on the NIC (§4.2).
        self._qp_factory = Resource(env, capacity=1)
        self.mrs = MrTable(env, machine)
        self.dc_targets = {}
        self.target_pool = DcTargetPool(env, self)
        self.counters = CounterSet()

    def __repr__(self):
        return "<Rnic m%d>" % self.machine.machine_id

    # --- Outbound link ---------------------------------------------------------
    def occupy(self, service):
        """Admit a transfer that holds the outbound link for ``service``
        microseconds; returns the instant its last byte leaves.

        The link is a FCFS server whose service time (the bytes at line
        rate plus any serialized per-transfer work) is known on arrival,
        so it keeps no queue, only :attr:`free_at`.  A transfer starts
        at ``max(now, free_at)`` and pushes ``free_at`` to its own end.
        It runs to that end whatever its sender does next: an
        interrupted sender stops waiting, but the link stays busy, as a
        responder RNIC that never learns the requester gave up would.
        Schedules nothing; the caller sleeps until the returned end plus
        whatever latency follows it.
        """
        start = self.free_at
        now = self.env.now
        if start < now:
            start = now
        end = start + service
        self.free_at = end
        return end

    # --- Queue pairs ---------------------------------------------------------
    def create_rc_qp(self, peer_machine):
        """Create + connect an RC queue pair to one specific peer.

        Generator.  RC is connection-*ful*: the peer must create a matching
        QP, so its 700/s creation slot is consumed too — which is why one
        heavily-forked parent caps the whole cluster at ~700 forks/s in the
        Fig. 15 b "base" design.  The peer's creation overlaps the 4 ms
        handshake when uncontended.
        """
        qps = yield from self.create_rc_qps(peer_machine, 1)
        return qps[0]

    def create_rc_qps(self, peer_machine, count):
        """The ONE place RC connection setup is costed.

        Generator returning ``count`` connected :class:`RcQp`\\ s to one
        peer.  Every caller — the seed's one-QP-per-fork path and the
        connection plane's pooled/batched path — goes through here, so
        the creation-rate limit and the 4 ms handshake are never re-added
        inline at call sites.  A multi-QP batch makes *one* serialized
        pass through each NIC's QP factory: the first creation pays the
        full 1/700 s verbs round trip, the rest ride the same doorbell at
        :data:`~repro.params.CONNPLANE_QP_BATCH_LATENCY` each, and the
        whole batch shares one 4 ms handshake.
        """
        yield self._qp_factory.acquire()
        try:
            yield self.env.timeout(self._creation_pass_cost(count))
        finally:
            self._qp_factory.release()
        handshake_started = self.env.now
        peer_nic = self.fabric.nics.get(peer_machine.machine_id)
        if peer_nic is not None and peer_nic is not self:
            yield peer_nic._qp_factory.acquire()
            try:
                yield self.env.timeout(peer_nic._creation_pass_cost(count))
            finally:
                peer_nic._qp_factory.release()
            peer_nic.counters.incr("rcqp_created", count)
        remaining = params.RC_CONNECT_LATENCY - (self.env.now - handshake_started)
        if remaining > 0:
            yield self.env.timeout(remaining)
        self.counters.incr("rcqp_created", count)
        return [RcQp(self, peer_machine) for _ in range(count)]

    @staticmethod
    def _creation_pass_cost(count):
        """Factory occupancy for ``count`` creations in one batched pass.

        ``count == 1`` is exactly the seed's ``RCQP_CREATE_LATENCY`` —
        the off path must stay byte-identical.
        """
        return (params.RCQP_CREATE_LATENCY
                + (count - 1) * params.CONNPLANE_QP_BATCH_LATENCY)

    def create_dc_qp(self):
        """Create a DC queue pair (cheap; cached by the network daemon)."""
        yield self.env.timeout(params.DC_TARGET_CREATE_LATENCY)
        self.counters.incr("dcqp_created")
        return DcQp(self)

    # --- DC targets ------------------------------------------------------------
    def _new_target(self, user_key):
        target = DcTarget(self.machine, user_key)
        self.dc_targets[target.target_id] = target
        return target

    def destroy_target(self, target):
        """Revoke a DC target: the NIC will NAK all future requests to it.

        This is the parent-side half of MITOSIS's passive access control —
        O(1), no coordination with any child (§4.3).
        """
        target.destroy()
        self.dc_targets.pop(target.target_id, None)
        self.counters.incr("dct_destroyed")

    def admits_dct(self, target_id, key):
        """The responder-side connection check replacing MR checks: the
        target is active and ``key`` matches its key.  A reader usually
        presents the target's own key object, so identity is tried
        first."""
        target = self.dc_targets.get(target_id)
        if target is None or not target.active:
            return False
        return key is target.key or key == target.key
