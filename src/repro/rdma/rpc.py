"""FaSST-style RPC over unreliable datagrams (§4.1).

Connection-less two-sided messaging used for the cheap control plane:
descriptor-address queries and the fallback-daemon page reads.  Each machine
runs a small, fixed pool of kernel worker threads (the paper deploys two) —
so RPC service capacity, not just wire time, bounds fallback throughput.
"""

from .. import params
from ..metrics import CounterSet
from ..sim import Resource, SeededStreams
from .errors import ConnectionError_, RdmaError
from .qp import UdQp


class RpcError(Exception):
    """Raised to the caller when the remote handler rejects the request."""


class RpcTimeout(RdmaError):
    """A call's deadline expired without an authoritative reply.

    Deliberately *not* an :class:`RpcError`: a rejection is a statement
    from a live peer, a timeout says the peer may be dead or the message
    was lost.  Recovery paths treat the two very differently ("revoked"
    vs. "dead", §4.3).
    """


#: Sentinel returned by an RPC attempt whose request or reply vanished:
#: the caller cannot observe the loss, it just waits out its deadline.
_LOST = object()


class RpcEndpoint:
    """One machine's RPC service: handler table + worker pool."""

    def __init__(self, env, nic, workers=params.MITOSIS_DAEMON_THREADS):
        self.env = env
        self.nic = nic
        self.machine = nic.machine
        self.workers = Resource(env, capacity=workers)
        self._handlers = {}
        # Boot-time UD QP, created before the experiment clock starts.
        self._udqp = UdQp(nic)

    def register(self, method, handler):
        """Install ``handler`` for ``method``.

        ``handler`` is a generator function ``(args) -> (value, reply_bytes)``
        run on this machine; it may yield simulation events and may raise
        :class:`RpcError` to fail the call.
        """
        if method in self._handlers:
            raise ValueError("handler for %r already registered" % (method,))
        self._handlers[method] = handler

    def handler_for(self, method):
        """The handler for ``method``; raises RpcError if absent."""
        try:
            return self._handlers[method]
        except KeyError:
            raise RpcError("no handler for %r on m%d"
                           % (method, self.machine.machine_id))


class RpcRuntime:
    """Cluster-wide registry of RPC endpoints and the call primitive."""

    def __init__(self, env, fabric, streams=None):
        self.env = env
        self.fabric = fabric
        #: Deterministic jitter for retry backoff (``rpc-retry-jitter``).
        self.streams = streams or SeededStreams(0)
        self.counters = CounterSet()
        self._endpoints = {}

    def endpoint(self, machine, workers=params.MITOSIS_DAEMON_THREADS):
        """Get (creating on first use) the endpoint on ``machine``."""
        key = machine.machine_id
        if key not in self._endpoints:
            self._endpoints[key] = RpcEndpoint(
                self.env, self.fabric.nic_of(machine), workers=workers)
        return self._endpoints[key]

    def call(self, caller_machine, target_machine, method, args,
             request_bytes=64, deadline=None, retries=None, budget=None):
        """Invoke ``method`` on ``target_machine``; generator returning the value.

        Timing: UD request (latency + caller egress) -> queue for a worker
        -> handler's own simulated time -> UD reply (latency + target
        egress).  Local calls skip the wire but still queue for a worker.

        With no fault injector installed and no ``deadline``, the call is
        driven inline (zero extra events — the fail-free fast path).  Once
        faults are armed, every call races against a per-call ``deadline``
        (default :data:`~repro.params.RPC_DEFAULT_DEADLINE`) and retries up
        to ``retries`` times (default :data:`~repro.params.RPC_MAX_RETRIES`)
        with exponential backoff + seeded jitter; exhaustion raises
        :class:`RpcTimeout`.  A handler's :class:`RpcError` is authoritative
        and is never retried.

        ``budget`` (a :class:`~repro.resilience.RetryBudget`) caps retries
        across *every* call sharing one invocation: each resend must be
        paid for, and an exhausted budget fails the call immediately
        instead of letting per-call retry counts multiply.
        """
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.start_span(
                "rpc.call", method=method,
                machine=caller_machine.machine_id,
                peer=target_machine.machine_id)
        try:
            caller_ep = self.endpoint(caller_machine)
            target_ep = self.endpoint(target_machine)
            remote = caller_machine.machine_id != target_machine.machine_id
            if self.fabric.faults is None and deadline is None:
                value = yield from self._attempt(caller_ep, target_ep, method,
                                                 args, request_bytes, remote)
                return value

            if deadline is None:
                deadline = params.RPC_DEFAULT_DEADLINE
            if retries is None:
                retries = params.RPC_MAX_RETRIES
            attempts = int(retries) + 1
            for attempt in range(attempts):
                attempt_proc = self.env.process(self._attempt(
                    caller_ep, target_ep, method, args, request_bytes, remote))
                timer = self.env.timeout(deadline)
                try:
                    yield self.env.any_of([attempt_proc, timer])
                except RpcError:
                    raise  # authoritative rejection from a live peer
                except ConnectionError_:
                    # Local port down (loud send-CQ error): retryable.
                    pass
                else:
                    if attempt_proc.triggered and attempt_proc.ok:
                        value = attempt_proc.value
                        if value is not _LOST:
                            return value
                        # Request or reply silently lost: the caller cannot
                        # observe that — it just waits out its deadline.
                        # (Timeouts are born `triggered`; `processed` is the
                        # has-it-actually-fired test.)
                        if not timer.processed:
                            yield timer
                    else:
                        # Deadline fired first; the straggler attempt may
                        # still complete (or fail) later — nobody is
                        # waiting for it.
                        attempt_proc.defuse()
                self.counters.incr("rpc_timeouts")
                if span is not None:
                    span.event("rpc_timeout", attempt=attempt)
                if attempt < attempts - 1:
                    if budget is not None and not budget.try_spend(
                            1, label="rpc:%s" % method):
                        self.counters.incr("rpc_budget_exhausted")
                        if span is not None:
                            span.event("rpc_budget_exhausted")
                        break
                    self.counters.incr("rpc_retries")
                    if span is not None:
                        span.event("rpc_retry", attempt=attempt)
                    backoff = min(
                        params.RPC_RETRY_BACKOFF_CAP,
                        params.RPC_RETRY_BACKOFF_BASE * (2 ** attempt))
                    backoff *= 1.0 + self.streams.uniform(
                        "rpc-retry-jitter", 0.0, params.RPC_RETRY_JITTER)
                    yield self.env.timeout(backoff)
            raise RpcTimeout(
                "%s to m%d: no reply within %g us per attempt"
                % (method, target_machine.machine_id, deadline))
        finally:
            if span is not None:
                span.end()

    def push(self, caller_machine, target_machine, nbytes):
        """One-way, best-effort UD datagram: no reply, no worker slot.

        Generator returning True when the payload arrived.  The primitive
        under ahead-of-demand distribution (``repro.connplane``'s
        advertisement pushes): losing one is harmless — the receiver just
        falls back to the authoritative RPC path — so there is no
        deadline, retry, or budget machinery here.
        """
        caller_ep = self.endpoint(caller_machine)
        if caller_machine.machine_id == target_machine.machine_id:
            return True  # local install, nothing on the wire
        delivered = yield from caller_ep._udqp.send(target_machine, nbytes)
        if not delivered:
            self.counters.incr("push_lost")
            return False
        faults = self.fabric.faults
        if faults is not None and not faults.machine_up(
                target_machine.machine_id):
            return False  # arrived at a dead NIC
        self.counters.incr("push_delivered")
        return True

    def _attempt(self, caller_ep, target_ep, method, args, request_bytes,
                 remote):
        """One request/serve/reply round; returns the value or ``_LOST``."""
        faults = self.fabric.faults
        if remote:
            delivered = yield from caller_ep._udqp.send(
                target_ep.machine, request_bytes)
            if not delivered:
                return _LOST
        if faults is not None and not faults.machine_up(
                target_ep.machine.machine_id):
            return _LOST  # the daemon is dead; the request falls on the floor
        try:
            handler = target_ep.handler_for(method)
        except RpcError:
            # Unknown method: the server still burns a worker slot on the
            # table miss and sends an error reply — the caller pays the
            # full round trip before seeing the rejection.
            yield target_ep.workers.acquire()
            try:
                yield self.env.timeout(params.RPC_UNKNOWN_METHOD_LATENCY)
            finally:
                target_ep.workers.release()
            if remote:
                delivered = yield from target_ep._udqp.send(
                    caller_ep.machine, 32)
                if not delivered:
                    return _LOST
            raise
        yield target_ep.workers.acquire()
        try:
            if faults is not None and not faults.machine_up(
                    target_ep.machine.machine_id):
                return _LOST  # crashed while the request sat in the queue
            value, reply_bytes = yield from handler(args)
        finally:
            target_ep.workers.release()
        if faults is not None and not faults.machine_up(
                target_ep.machine.machine_id):
            return _LOST  # crashed before the reply left the machine
        if remote:
            delivered = yield from target_ep._udqp.send(
                caller_ep.machine, reply_bytes)
            if not delivered:
                return _LOST
        return value
