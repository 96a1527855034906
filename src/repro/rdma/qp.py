"""Queue pairs: RC (static connected), DC (dynamic connected), UD (datagram).

All data-plane methods return generators (``yield from`` them inside a
process); they simulate timing and raise
:class:`~repro.rdma.errors.RemoteAccessError` where the real NIC would
return an error completion.
"""

from collections import namedtuple

from .. import params
from .errors import ConnectionError_, RemoteAccessError


def link_time(nbytes, extra=0.0):
    """How long an outbound link is held for ``nbytes`` at
    ``RDMA_BANDWIDTH`` plus ``extra`` of serialized per-transfer work:
    the one place link time is formed, for :func:`read_legs` and
    :meth:`RdmaFabric.stream`.  ``extra=0.0`` is an exact identity."""
    return params.transfer_time(nbytes, params.RDMA_BANDWIDTH) + extra


#: The legs of one READ (:func:`read_legs`), in microseconds except
#: ``nbytes``.
ReadLegs = namedtuple("ReadLegs", "request nbytes link response")


def read_legs(wire, npages, page_bytes, dct, slow=1.0, extra=0.0):
    """The legs of one READ of ``npages`` contiguous pages of
    ``page_bytes`` over a path of one-way latency ``wire``: the one
    place a READ's timing is formed.

    * ``request`` — posting to the responder's access check: half the
      round trip and the wire, ``DCT_REQUEST_OVERHEAD`` on DC, and one
      ``DOORBELL_WQE_OVERHEAD`` per WQE after the first (one doorbell);
    * ``nbytes`` — what the responder streams: the payloads, each with
      ``DCT_EXTRA_HEADER_BYTES`` on DC;
    * ``link`` — the responder link's service time for ``nbytes``
      (:func:`link_time`), the time :meth:`RdmaFabric.stream` holds the
      link for them;
    * ``response`` — from the last byte leaving to completion: half the
      round trip and the wire.  A NAK comes back in the same time.

    ``(slow, extra)`` is a path's degradation under an installed fault
    injector; the fail-free ``(1.0, 0.0)`` is an exact float identity.
    """
    half = params.RDMA_READ_LATENCY / 2.0
    posting = (npages - 1) * params.DOORBELL_WQE_OVERHEAD
    if dct:
        request = (half + wire + params.DCT_REQUEST_OVERHEAD
                   + posting) * slow + extra
        nbytes = npages * (page_bytes + params.DCT_EXTRA_HEADER_BYTES)
    else:
        request = (half + wire + posting) * slow + extra
        nbytes = npages * page_bytes
    return ReadLegs(request, nbytes, link_time(nbytes),
                    (half + wire) * slow + extra)


class _QpBase:
    """Shared verb plumbing.

    Every verb reads ``fabric.faults`` once.  With no injector installed
    (the fail-free path) it prices the operation at ``(slow, extra) =
    (1.0, 0.0)`` — an exact float identity — and skips every fault
    query; with one installed it checks the local port and the path,
    then applies :meth:`_degrade` and :meth:`_lossy_retx`.
    """

    def __init__(self, nic):
        self.nic = nic
        self.env = nic.env

    def _degrade(self, faults, peer_machine):
        """``(slowdown, extra_latency)`` for the path to ``peer_machine``
        under the installed injector ``faults``.

        ``(1.0, 0.0)`` when healthy — applying it is then an exact float
        identity, so the timing matches the fail-free path.
        """
        if not faults.any_degraded:
            return 1.0, 0.0
        src = self.nic.machine.machine_id
        dst = peer_machine.machine_id
        return (faults.path_slowdown(src, dst),
                faults.link_extra_latency(src, dst))

    def _lossy_retx(self, faults, peer_machine):
        """Generator: retransmit penalties on a lossy link.

        Reliable transports (RC/DC) don't lose packets to a lossy link —
        they pay for them: each drop draw costs one go-back-N retransmit
        penalty, re-drawn geometrically until the packet gets through.
        """
        rate = faults.link_drop_rate(self.nic.machine.machine_id,
                                     peer_machine.machine_id)
        if rate <= 0.0:
            return
        while faults.streams.random("lossy-retx") < rate:
            self.nic.counters.incr("lossy_retx")
            tracer = self.env.tracer
            if tracer is not None and tracer.enabled:
                # Lands on the in-flight verb span when there is one.
                tracer.annotate("lossy_retx",
                                peer=peer_machine.machine_id)
            yield self.env.timeout(params.LOSSY_RETX_PENALTY)


class RcQp(_QpBase):
    """Reliable-connected QP: bound to one peer, several-KB footprint."""

    def __init__(self, nic, peer_machine):
        super().__init__(nic)
        self.peer = peer_machine
        self.connected = True
        #: "RTS" (ready to send) or "ERROR" — a reliable QP that saw a
        #: transport timeout transitions to ERROR and stays there until
        #: the connection is re-established (real RC semantics).
        self.state = "RTS"
        self.footprint = params.RCQP_FOOTPRINT_BYTES

    def close(self):
        """Tear the connection down; further verbs raise."""
        self.connected = False

    @property
    def usable(self):
        """True while verbs can still be posted (open and in RTS).

        The connection plane's pool check: a cached QP that went to
        ERROR (transport timeout) or was closed must be discarded, never
        handed out as warm.
        """
        return self.connected and self.state == "RTS"

    def _check_usable(self):
        if not self.connected:
            raise ConnectionError_("RCQP to m%d is closed" % self.peer.machine_id)
        if self.state != "RTS":
            raise ConnectionError_("RCQP to m%d is in ERROR state"
                                   % self.peer.machine_id)

    def _faulted_prologue(self, faults):
        """Port, path, degradation and lossy retransmits under an
        installed injector.  Generator returning ``(slow, extra)``."""
        src = self.nic.machine.machine_id
        if not faults.nic_up(src):
            self.state = "ERROR"
            raise ConnectionError_("RCQP on m%d: local port down" % src)
        if not faults.path_up(src, self.peer.machine_id):
            yield self.env.timeout(params.RC_RETRY_TIMEOUT)
            self.state = "ERROR"
            self.nic.counters.incr("rc_timeouts")
            raise ConnectionError_("RCQP to m%d: transport retries exhausted"
                                   % self.peer.machine_id)
        slow_extra = self._degrade(faults, self.peer)
        yield from self._lossy_retx(faults, self.peer)
        return slow_extra

    def read(self, length, rkey=None, addr=0):
        """One-sided READ of ``length`` bytes from the connected peer.

        With ``rkey`` the responder NIC performs the conventional MR bounds
        check and NAKs out-of-region accesses.
        """
        return self._read(1, length, rkey, addr)

    def read_batch(self, npages, page_bytes, rkey=None, addr=0):
        """Doorbell-batched READ of ``npages`` contiguous pages (§4.1).

        Models the amortized cost structure of posting ``npages`` WQEs and
        ringing the doorbell once: a single request latency (plus a tiny
        per-extra-WQE posting cost), one MR check covering the whole range,
        the per-page payloads streamed back-to-back, and a single response
        latency.  Counters are charged per page so page-granularity
        accounting stays comparable with the unbatched path.  A batch of
        one is exactly :meth:`read`.
        """
        if npages <= 0:
            raise ValueError("read_batch of %d pages" % npages)
        return self._read(npages, page_bytes, rkey, addr)

    def _read(self, npages, page_bytes, rkey, addr):
        """The READ behind both verbs: a batch of one adds no WQE
        posting cost and counts no batch.  Generator."""
        length = npages * page_bytes
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled:
            if npages == 1:
                span = tracer.start_span("rdma.rc_read",
                                         machine=self.nic.machine.machine_id,
                                         peer=self.peer.machine_id,
                                         nbytes=length)
            else:
                span = tracer.start_span("rdma.rc_read_batch",
                                         machine=self.nic.machine.machine_id,
                                         peer=self.peer.machine_id,
                                         npages=npages)
        try:
            self._check_usable()
            fabric = self.nic.fabric
            faults = fabric.faults
            if faults is None:
                slow, extra = 1.0, 0.0
            else:
                slow, extra = yield from self._faulted_prologue(faults)
            peer_nic = fabric.nic_of(self.peer)
            # One doorbell: request latency paid once for the whole range.
            legs = read_legs(fabric.wire_latency(self.nic.machine, self.peer),
                             npages, page_bytes, dct=False, slow=slow,
                             extra=extra)
            yield self.env.timeout(legs.request)
            if rkey is not None and not peer_nic.mrs.check(rkey, addr, length):
                yield self.env.timeout(legs.response)  # the NAK
                self.nic.counters["rc_read_rejected"] += 1
                raise RemoteAccessError(
                    "MR check failed for rkey=%r addr=%#x len=%d"
                    % (rkey, addr, length))
            yield from fabric.stream(peer_nic, legs.nbytes,  # the payloads
                                     dst_machine=self.nic.machine,
                                     then=legs.response)
            self.nic.counters["rc_read"] += npages
            if npages > 1:
                self.nic.counters["rc_read_batches"] += 1
            return length
        finally:
            if span is not None:
                span.end()

    def write(self, length):
        """One-sided WRITE of ``length`` bytes to the connected peer."""
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.start_span("rdma.rc_write",
                                     machine=self.nic.machine.machine_id,
                                     peer=self.peer.machine_id, nbytes=length)
        try:
            self._check_usable()
            fabric = self.nic.fabric
            faults = fabric.faults
            if faults is None:
                slow, extra = 1.0, 0.0
            else:
                slow, extra = yield from self._faulted_prologue(faults)
            wire = fabric.wire_latency(self.nic.machine, self.peer)
            yield from fabric.stream(
                self.nic, length,  # data leaves our link
                dst_machine=self.peer,
                then=(params.RDMA_READ_LATENCY + 2 * wire) * slow + extra)
            self.nic.counters.incr("rc_write")
            return length
        finally:
            if span is not None:
                span.end()


class DcQp(_QpBase):
    """Dynamic-connected QP: one QP reaches any DC target on any machine.

    Re-targeting costs <1 us (§4.2); each request carries the 12 B DCT key
    and the remote RDMA address for routing.
    """

    def __init__(self, nic):
        super().__init__(nic)
        #: The DC target this QP last connected to: a read to any other
        #: target pays the reconnect first.
        self.last_target_id = None

    def _faulted_prologue(self, faults, target_machine):
        """Port, path, degradation and lossy retransmits under an
        installed injector.  Generator returning ``(slow, extra)``."""
        src = self.nic.machine.machine_id
        if not faults.nic_up(src):
            raise ConnectionError_("DCQP on m%d: local port down" % src)
        if not faults.path_up(src, target_machine.machine_id):
            yield self.env.timeout(params.DC_RETRY_TIMEOUT)
            self.nic.counters.incr("dc_timeouts")
            raise ConnectionError_(
                "DC peer m%d unreachable: transport retries exhausted"
                % target_machine.machine_id)
        slow_extra = self._degrade(faults, target_machine)
        yield from self._lossy_retx(faults, target_machine)
        return slow_extra

    def read(self, target_machine, target_id, key, length):
        """One-sided READ via a DC target.

        Raises :class:`RemoteAccessError` if the target was destroyed or the
        key mismatches — this NAK is exactly how children *passively* learn
        the parent reclaimed the underlying physical pages (§4.3).  A *dead*
        or unreachable peer is different: the transport burns its retry
        budget and completes in error with :class:`ConnectionError_`, so
        callers can tell "revoked" (expected) from "dead" (recover).
        """
        return self._read(target_machine, target_id, key, 1, length)

    def read_batch(self, target_machine, target_id, key, npages, page_bytes):
        """Doorbell-batched READ of ``npages`` contiguous pages via a DC
        target (§4.1 + §4.2).

        Same failure semantics as :meth:`read` — a destroyed target NAKs
        the whole batch with :class:`RemoteAccessError` (the passive
        reclamation signal covers every page behind the target at once),
        and an unreachable peer burns one retry budget for the batch.  The
        cost model is one request packet (single doorbell ring, tiny
        per-extra-WQE posting cost), per-page payloads each carrying the
        DCT header, and one response latency.  A batch of one is exactly
        :meth:`read`.
        """
        if npages <= 0:
            raise ValueError("read_batch of %d pages" % npages)
        return self._read(target_machine, target_id, key, npages, page_bytes)

    def _read(self, target_machine, target_id, key, npages, page_bytes):
        """The READ behind both verbs: a batch of one adds no WQE
        posting cost and counts no batch.  Generator."""
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled:
            if npages == 1:
                span = tracer.start_span("rdma.dc_read",
                                         machine=self.nic.machine.machine_id,
                                         peer=target_machine.machine_id,
                                         nbytes=page_bytes)
            else:
                span = tracer.start_span("rdma.dc_read_batch",
                                         machine=self.nic.machine.machine_id,
                                         peer=target_machine.machine_id,
                                         npages=npages)
        try:
            fabric = self.nic.fabric
            faults = fabric.faults
            if faults is None:
                slow, extra = 1.0, 0.0
            else:
                slow, extra = yield from self._faulted_prologue(
                    faults, target_machine)
            peer_nic = fabric.nic_of(target_machine)
            legs = read_legs(
                fabric.wire_latency(self.nic.machine, target_machine),
                npages, page_bytes, dct=True, slow=slow, extra=extra)
            if target_id != self.last_target_id:
                if span is not None:
                    span.event("dct_reconnect", target=target_id)
                yield self.env.timeout(params.DCT_RECONNECT_LATENCY * slow)
                self.last_target_id = target_id
            yield self.env.timeout(legs.request)
            if not peer_nic.admits_dct(target_id, key):
                yield self.env.timeout(legs.response)  # the NAK
                self.nic.counters["dc_read_rejected"] += 1
                raise RemoteAccessError(
                    "DC target %r rejected on m%d"
                    % (target_id, target_machine.machine_id))
            yield from fabric.stream(peer_nic, legs.nbytes,
                                     dst_machine=self.nic.machine,
                                     then=legs.response)
            self.nic.counters["dc_read"] += npages
            if npages > 1:
                self.nic.counters["dc_read_batches"] += 1
            return npages * page_bytes
        finally:
            if span is not None:
                span.end()


class UdQp(_QpBase):
    """Unreliable-datagram QP: connection-less two-sided messaging.

    The transport under FaSST-style RPC (§4.1): no handshake, small
    per-message cost, used for descriptor-address queries and fallbacks.
    """

    MTU = 4096

    def send(self, target_machine, nbytes):
        """Send a datagram payload, fragmented at the 4 KB MTU.

        Each extra MTU chunk costs per-packet CPU at the sender — UD RPC
        is built for small control messages, not bulk payloads (§4.1).

        Returns the bytes *delivered*: ``nbytes`` normally, ``0`` when the
        datagram was lost in flight (dead path, or an injected drop) — UD
        really is unreliable once a fault injector is installed.  A downed
        local port is the one loud case (immediate send-CQ error).
        """
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.start_span("rdma.ud_send",
                                     machine=self.nic.machine.machine_id,
                                     peer=target_machine.machine_id,
                                     nbytes=nbytes)
        try:
            fabric = self.nic.fabric
            faults = fabric.faults
            if faults is None:
                slow, extra = 1.0, 0.0
            else:
                if not faults.nic_up(self.nic.machine.machine_id):
                    raise ConnectionError_("UD send on m%d: local port down"
                                           % self.nic.machine.machine_id)
                slow, extra = self._degrade(faults, target_machine)
            wire = fabric.wire_latency(self.nic.machine, target_machine)
            chunks = max(1, (int(nbytes) + self.MTU - 1) // self.MTU)
            yield from fabric.stream(
                self.nic, nbytes,
                extra_time=(chunks - 1) * params.UD_PACKET_OVERHEAD,
                dst_machine=target_machine,
                then=(params.UD_RPC_BASE_LATENCY / 2.0 + wire) * slow + extra)
            self.nic.counters.incr("ud_send")
            if faults is not None:
                dst = target_machine.machine_id
                if (not faults.path_up(self.nic.machine.machine_id, dst)
                        or not faults.ud_delivered(
                            self.nic.machine.machine_id, dst)):
                    self.nic.counters.incr("ud_lost")
                    if span is not None:
                        span.set(lost=True)
                    return 0
            return nbytes
        finally:
            if span is not None:
                span.end()
