"""Invoker health monitoring: LB-side heartbeats + re-admission.

The load balancer pings every invoker over the same UD RPC runtime the
data plane uses, so a crashed machine, a downed port, or a cut link all
look the same to the monitor: missed heartbeats.  After
:data:`~repro.params.FN_HEARTBEAT_MISS_LIMIT` consecutive misses the
invoker is taken out of admission (``invoker.admitting = False``) and the
policy is told (seed re-election, §5); the first heartbeat that answers
again re-admits it.  Outage spans land in the cluster's
:class:`~repro.metrics.RecoveryLog`, which is where MTTR comes from.

With the resilience layer armed the monitor also scores *gray* health:
every answered ping feeds an EWMA of its round-trip latency, and an EWMA
above :data:`~repro.params.FN_HEALTH_SUSPECT_LATENCY` (or any miss)
raises the invoker's **suspicion** level.  Crossing
:data:`~repro.params.FN_SUSPECT_THRESHOLD` opens the invoker's reroute
gate — shedding its queued admissions — and suspicion biases the LB's
placement away from the invoker without the binary eviction a slow-but-
alive machine never earns.
"""

from .. import params
from ..rdma import ConnectionError_, RpcError
from ..rdma.rpc import RpcTimeout
from ..sim import Interrupt


class HealthMonitor:
    """One watch process per invoker, pinging from the LB machine."""

    def __init__(self, fn_cluster):
        self.fn = fn_cluster
        self.env = fn_cluster.env
        self._procs = []
        for invoker in fn_cluster.invokers:
            self._register_ping(invoker)

    def _register_ping(self, invoker):
        def handle_ping(args):
            yield self.env.timeout(1.0 * params.US)
            return invoker.index, 16

        # Handler tables are per-endpoint, so a plain name cannot clash
        # across invokers (each lives on its own machine).
        self.fn.rpc.endpoint(invoker.machine).register(
            "fn.ping", handle_ping)

    def start(self):
        """Start one watch loop per invoker; returns the processes."""
        if self._procs:
            return self._procs
        self._procs = [self.env.process(self._watch(invoker))
                       for invoker in self.fn.invokers]
        return self._procs

    def stop(self):
        """Interrupt every watch loop (so the event loop can drain)."""
        for proc in self._procs:
            if proc.is_alive and proc is not self.env.active_process:
                proc.interrupt("health monitor stopped")
        self._procs = []

    def _watch(self, invoker):
        """Heartbeat loop for one invoker."""
        misses = 0
        scoring = self.fn.resilience is not None
        try:
            while True:
                yield self.env.timeout(params.FN_HEARTBEAT_PERIOD)
                pinged_at = self.env.now
                try:
                    yield from self.fn.rpc.call(
                        self.fn.lb_machine, invoker.machine,
                        "fn.ping", {},
                        request_bytes=16,
                        deadline=params.FN_HEARTBEAT_TIMEOUT, retries=0)
                except (RpcTimeout, ConnectionError_, RpcError):
                    misses += 1
                    self.fn.counters.incr("heartbeat_misses")
                    if scoring:
                        self._raise_suspicion(
                            invoker, params.FN_SUSPICION_MISS_STEP)
                    if (misses == params.FN_HEARTBEAT_MISS_LIMIT
                            and invoker.admitting):
                        invoker.admitting = False
                        self.fn.counters.incr("invokers_evicted")
                        self.fn.recovery.mark_down(
                            ("invoker", invoker.index), self.env.now)
                        if scoring:
                            invoker.reroute.open()
                        self.fn.policy.on_invoker_lost(self.fn, invoker)
                        if self.fn.lineage is not None:
                            self.fn.lineage.on_invoker_suspect(invoker)
                else:
                    misses = 0
                    if scoring:
                        self._score_latency(invoker,
                                            self.env.now - pinged_at)
                    if self.fn.connplane is not None:
                        # Piggyback on the answered heartbeat: re-push any
                        # advert this (healthy) invoker is missing — lost
                        # push datagrams and crash wipes heal here.
                        self.fn.connplane.on_heartbeat(invoker)
                    if not invoker.admitting:
                        invoker.admitting = True
                        self.fn.counters.incr("invokers_readmitted")
                        self.fn.recovery.mark_up(
                            ("invoker", invoker.index), self.env.now)
                        if self.fn.lineage is not None:
                            self.fn.lineage.on_invoker_readmitted(invoker)
        except Interrupt:
            return

    # --- Gray-failure scoring (resilience layer only) --------------------------
    def _score_latency(self, invoker, rtt):
        """Fold one answered ping's round trip into the invoker's EWMA."""
        alpha = params.FN_HEALTH_EWMA_ALPHA
        if invoker.health_ewma is None:
            invoker.health_ewma = rtt
        else:
            invoker.health_ewma = (alpha * rtt
                                   + (1.0 - alpha) * invoker.health_ewma)
        if invoker.health_ewma > params.FN_HEALTH_SUSPECT_LATENCY:
            self._raise_suspicion(invoker, params.FN_SUSPICION_LAT_STEP)
        elif invoker.suspicion > 0.0:
            invoker.suspicion *= params.FN_SUSPICION_DECAY
            if invoker.suspicion < 1e-3:
                invoker.suspicion = 0.0

    def _raise_suspicion(self, invoker, step):
        """Bump suspicion; crossing the threshold re-routes queued work."""
        before = invoker.suspicion
        invoker.suspicion = min(1.0, before + step)
        if (before < params.FN_SUSPECT_THRESHOLD
                <= invoker.suspicion):
            self.fn.counters.incr("invokers_suspected")
            invoker.reroute.open()
            if self.fn.lineage is not None:
                # Kick the copy-out-on-suspicion sweep while the gray
                # primary may still answer page reads.
                self.fn.lineage.on_invoker_suspect(invoker)
