"""Invokers: the machines that execute function containers (§5, Fig. 9)."""

from collections import deque

from .. import params
from ..criu import TmpfsStore
from ..sim import Gate, Resource


class Invoker:
    """One Fn invoker machine."""

    def __init__(self, env, runtime, index):
        self.env = env
        self.runtime = runtime
        self.kernel = runtime.kernel
        self.machine = runtime.machine
        self.index = index
        #: Bounded request admission: requests queue FIFO behind slow
        #: (cold/stalled) starts — the paper's §6.2 queuing effect.
        self.admission = Resource(env,
                                  capacity=params.FN_INVOKER_CONCURRENCY)
        #: In-flight invocations (load-balancing signal).
        self.outstanding = 0
        #: function name -> deque of (paused container, cached_at).
        self.idle_cache = {}
        #: Local tmpfs for provisioned checkpoint images (CRIU-tmpfs mode).
        self.tmpfs = TmpfsStore(self.machine)
        #: All containers this invoker currently keeps alive (running,
        #: paused-cached, or seeds) for memory accounting.
        self.live_containers = set()
        #: Ground truth: False while this invoker's machine is crashed.
        self.alive = True
        #: The LB's view: set False by the health monitor once heartbeats
        #: miss, True again on re-admission.  Lags behind ``alive``.
        self.admitting = True
        #: Broadcast opened when the health monitor wants queued requests
        #: off this invoker (suspicion crossed the threshold, or it was
        #: evicted) — bounded admission waits race against it.
        self.reroute = Gate(env)
        #: EWMA of heartbeat round-trip latency (None until first sample).
        self.health_ewma = None
        #: Gray-failure suspicion in [0, 1]; feeds placement weighting.
        self.suspicion = 0.0

    # --- Cache management ---------------------------------------------------
    def cache_put(self, name, container):
        """Cache an idle paused container for ``name``."""
        self.idle_cache.setdefault(name, deque()).append(
            (container, self.env.now))

    def cache_take(self, name):
        """Pop an idle cached container for ``name``, or None."""
        bucket = self.idle_cache.get(name)
        if bucket:
            container, _ = bucket.popleft()
            return container
        return None

    def cache_drop(self, name, container):
        """Remove a specific cached entry (eviction); False if already gone."""
        bucket = self.idle_cache.get(name)
        if not bucket:
            return False
        for entry in list(bucket):
            if entry[0] is container:
                bucket.remove(entry)
                return True
        return False

    def cached_count(self, name=None):
        """Idle cached containers (for one function, or total)."""
        if name is not None:
            return len(self.idle_cache.get(name, ()))
        return sum(len(b) for b in self.idle_cache.values())

    # --- Container bookkeeping ------------------------------------------------
    def track(self, container):
        """Count a container against this invoker's memory."""
        self.live_containers.add(container)

    @staticmethod
    def release_leases(container):
        """Release the pooled-QP leases the fork path attached to the
        container's task (connplane only).  Idempotent."""
        leases = getattr(container.task, "_connplane_leases", None)
        if leases:
            for lease in leases:
                lease.release()
            del leases[:]

    def untrack(self, container):
        """Stop counting a container.

        Also releases its pooled-QP leases (:meth:`release_leases`):
        untrack is on every exit path — finish, destroy, crash wipe — so
        leases cannot outlive their container and the pool's refcounts
        stay conserved.
        """
        self.release_leases(container)
        self.live_containers.discard(container)

    def destroy(self, container):
        """Tear a container down and stop tracking it."""
        self.untrack(container)
        self.runtime.destroy(container)

    # --- Fault hooks -------------------------------------------------------------
    def on_machine_crash(self):
        """Fail-stop wipe of every volatile invoker resource: running and
        cached containers, tmpfs checkpoint images."""
        tracer = self.env.tracer
        if tracer is not None and tracer.enabled:
            tracer.mark("invoker.crash_wipe", invoker=self.index,
                        machine=self.machine.machine_id,
                        live=len(self.live_containers),
                        cached=self.cached_count())
        self.alive = False
        for container in list(self.live_containers):
            if container.task.state != "dead":
                self.destroy(container)
            else:
                self.untrack(container)
        self.idle_cache.clear()
        self.tmpfs.clear()

    def on_machine_restart(self):
        """Machine back up; the health monitor decides re-admission."""
        tracer = self.env.tracer
        if tracer is not None and tracer.enabled:
            tracer.mark("invoker.restart", invoker=self.index,
                        machine=self.machine.machine_id)
        self.alive = True
        self.health_ewma = None  # stale latency samples predate the crash

    # --- Metrics -----------------------------------------------------------------
    def memory_bytes(self):
        """Function-related memory on this invoker (Figs. 11 b / 12 b).

        DRAM charged on the machine (frames, images, descriptors) plus the
        fixed per-container runtime overhead of every kept-alive instance.
        """
        overhead = sum(
            c.image.runtime_overhead_bytes + c.extra_overhead_bytes
            for c in self.live_containers)
        return self.machine.memory.used + overhead

    def provisioned_bytes(self):
        """Memory provisioned *before* any invocation ran (Table 1 cost)."""
        return self.tmpfs.stored_bytes

    def __repr__(self):
        return "<Invoker %d on m%d>" % (self.index, self.machine.machine_id)
