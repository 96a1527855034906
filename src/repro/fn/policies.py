"""Start policies: how an invoker obtains a container for an invocation.

One policy per comparing target in the evaluation (§6):

* :class:`ColdPolicy` — always cold start (the baseline everyone avoids).
* :class:`FnCachingPolicy` — vanilla Fn warm start: reuse a kept-alive
  container, cold start on miss, evict after 30 s.
* :class:`IdealCachePolicy` — Cache(Ideal): enough pre-started containers
  that no invocation ever cold starts (peak throughput bound by
  pause/unpause).
* :class:`CriuPolicy` — optimized CRIU restore, from per-invoker tmpfs
  images (CRIU-tmpfs) or from the shared DFS (CRIU-remote).
* :class:`MitosisPolicy` — one seed container + descriptor per function;
  every start is a remote fork.
"""

from .. import params
from ..criu import DfsSource, LocalTmpfsSource, checkpoint, restore
from ..faults.errors import FaultError, SeedUnavailable
from ..metrics import CounterSet
from ..rdma import ConnectionError_, RpcError
from ..rdma.rpc import RpcTimeout
from ..sim import Store

#: What a MITOSIS start may raise when the cluster is faulty: typed fault
#: errors from the layers below, an authoritative parent rejection, or a
#: transport-level timeout/dead connection.
_START_FAULTS = (FaultError, RpcError, RpcTimeout, ConnectionError_)


class StartPolicy:
    """Interface; concrete policies override the generator hooks."""

    name = "abstract"

    def provision(self, fn_cluster, function):
        """Pre-deploy per-function resources at registration time."""
        yield fn_cluster.env.timeout(0)

    def start(self, fn_cluster, invoker, function):
        """Obtain a running container.  Returns (container, start_kind)."""
        raise NotImplementedError

    def finish(self, fn_cluster, invoker, function, container):
        """Dispose of (or cache) the container after execution."""
        raise NotImplementedError

    def prefer_invoker(self, fn_cluster, function, invokers):
        """Policy-specific placement hint; None = least-loaded default."""
        return None

    def on_invoker_lost(self, fn_cluster, invoker):
        """Notification that an invoker crashed / stopped answering.

        Plain method (not a generator) — called synchronously from crash
        hooks and the health monitor.  Default: nothing to do.
        """


class ColdPolicy(StartPolicy):
    name = "cold"

    def start(self, fn_cluster, invoker, function):
        container = yield from invoker.runtime.cold_start(function.image)
        invoker.track(container)
        return container, "cold"

    def finish(self, fn_cluster, invoker, function, container):
        invoker.destroy(container)
        yield fn_cluster.env.timeout(0)


class FnCachingPolicy(StartPolicy):
    """Vanilla Fn: cache containers for 30 s after each run (§6.2)."""

    name = "fn-cache"

    def __init__(self, keepalive=params.FN_CACHE_KEEPALIVE):
        self.keepalive = keepalive
        self.hits = 0
        self.misses = 0

    def start(self, fn_cluster, invoker, function):
        cached = invoker.cache_take(function.name)
        if cached is not None:
            self.hits += 1
            yield from invoker.runtime.unpause(cached)
            return cached, "warm-cache"
        self.misses += 1
        container = yield from invoker.runtime.cold_start(function.image)
        invoker.track(container)
        return container, "cold"

    def finish(self, fn_cluster, invoker, function, container):
        yield from invoker.runtime.pause(container)
        invoker.cache_put(function.name, container)
        fn_cluster.env.process(
            self._evict_later(fn_cluster, invoker, function, container))

    def _evict_later(self, fn_cluster, invoker, function, container):
        cached_at = fn_cluster.env.now
        yield fn_cluster.env.timeout(self.keepalive)
        # Evict only if still sitting idle since we cached it.
        for entry in invoker.idle_cache.get(function.name, ()):
            if entry[0] is container and entry[1] == cached_at:
                invoker.cache_drop(function.name, container)
                invoker.destroy(container)
                return

    def hit_rate(self):
        """Warm-start fraction over all starts so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def prefer_invoker(self, fn_cluster, function, invokers):
        with_cache = [i for i in invokers if i.cached_count(function.name)]
        if not with_cache:
            return None
        return min(with_cache, key=lambda i: i.outstanding)


class IdealCachePolicy(StartPolicy):
    """Cache(Ideal): pre-provisioned instances, zero cold starts (§6.1)."""

    name = "cache-ideal"

    def __init__(self, instances_per_invoker=48):
        self.instances_per_invoker = instances_per_invoker
        self._pools = {}

    def provision(self, fn_cluster, function):
        for invoker in fn_cluster.invokers:
            pool = Store(fn_cluster.env)
            self._pools[(invoker.index, function.name)] = pool
            for _ in range(self.instances_per_invoker):
                container = yield from invoker.runtime.cold_start(
                    function.image)
                yield from invoker.runtime.pause(container)
                invoker.track(container)
                pool.put(container)

    def start(self, fn_cluster, invoker, function):
        pool = self._pools[(invoker.index, function.name)]
        container = yield pool.get()  # waits if all instances are busy
        yield from invoker.runtime.unpause(container)
        return container, "warm-cache"

    def finish(self, fn_cluster, invoker, function, container):
        yield from invoker.runtime.pause(container)
        self._pools[(invoker.index, function.name)].put(container)


class CriuPolicy(StartPolicy):
    """Optimized CRIU restore (lean containers + on-demand restore)."""

    def __init__(self, mode="tmpfs"):
        if mode not in ("tmpfs", "dfs"):
            raise ValueError("mode must be 'tmpfs' or 'dfs'")
        self.mode = mode
        self.name = "criu-tmpfs" if mode == "tmpfs" else "criu-remote"

    def provision(self, fn_cluster, function):
        """Checkpoint once; deploy to every invoker tmpfs, or once to DFS."""
        env = fn_cluster.env
        builder = fn_cluster.invokers[0]
        container = yield from builder.runtime.cold_start(function.image)
        image = yield from checkpoint(env, container, function.name)
        builder.runtime.destroy(container)
        if self.mode == "tmpfs":
            for invoker in fn_cluster.invokers:
                invoker.tmpfs.put(image)
        else:
            yield from fn_cluster.dfs.put(
                builder.machine, function.name, image.total_bytes,
                payload=image)

    def start(self, fn_cluster, invoker, function):
        env = fn_cluster.env
        if self.mode == "tmpfs":
            source = LocalTmpfsSource(env, invoker.tmpfs, invoker.machine)
        else:
            source = DfsSource(env, fn_cluster.dfs, invoker.machine)
        container = yield from restore(env, invoker.runtime, source,
                                       function.name, lazy=True)
        invoker.track(container)
        return container, "criu"

    def finish(self, fn_cluster, invoker, function, container):
        invoker.destroy(container)
        yield fn_cluster.env.timeout(0)


class MitosisPolicy(StartPolicy):
    """One cached seed per function; everything else is remote-forked (§5).

    ``placement`` picks where each seed lives: ``"least-memory"`` (the
    default, balancing invoker memory pressure) or ``"rack-spread"``
    (the rack hosting the fewest seeds, for cross-rack incast).  Page
    sharing is a property of the deployment, not of the policy:
    ``FnCluster(enable_sharing=...)`` switches it.
    """

    name = "mitosis"

    PLACEMENTS = ("least-memory", "rack-spread")

    def __init__(self, placement="least-memory", durable_seed=False):
        if placement not in self.PLACEMENTS:
            raise ValueError("placement must be one of %s" % (self.PLACEMENTS,))
        self.placement = placement
        #: Also checkpoint each seed to the DFS at provision time, so a
        #: start can degrade to CRIU-from-DFS when every fork path is dead.
        self.durable_seed = durable_seed
        #: function name -> (seed invoker, seed container, fork meta).
        self.seeds = {}
        self.counters = CounterSet()
        #: function name -> in-flight re-election event (single-flight).
        self._reelecting = {}

    def _place_seed(self, fn_cluster, function):
        invokers = fn_cluster.invokers
        if self.placement == "rack-spread":
            # ToR-domain-aware: seeds go to the rack hosting the fewest
            # seeds so far (then least-memory within it), spreading the
            # incast fan-in across ToR uplinks instead of stacking every
            # seed NIC behind one oversubscribed spine port.
            seeded = [inv.machine.rack
                      for inv, _seed, _meta in self.seeds.values()]
            return min(invokers,
                       key=lambda i: (seeded.count(i.machine.rack),
                                      i.machine.memory.used, i.index))
        return min(invokers, key=lambda i: i.machine.memory.used)

    def provision(self, fn_cluster, function):
        """Start the seed on the chosen invoker and prepare it."""
        invoker = self._place_seed(fn_cluster, function)
        seed = yield from invoker.runtime.cold_start(function.image)
        invoker.track(seed)
        node = fn_cluster.deployment.node(invoker.machine)
        meta = yield from node.fork_prepare(seed)
        self.seeds[function.name] = (invoker, seed, meta)
        self._advertise(fn_cluster, function.name, invoker, meta, node=node)
        if self.durable_seed:
            # checkpoint is --leave-running: the seed keeps serving forks.
            image = yield from checkpoint(fn_cluster.env, seed,
                                          self._durable_name(function.name))
            yield from fn_cluster.dfs.put(
                invoker.machine, image.name, image.total_bytes,
                payload=image)
        if fn_cluster.lineage is not None:
            # Register the seed as lineage primary and grow its replicas
            # synchronously, so the function is fault-tolerant the moment
            # registration returns.
            self._lineage_register(fn_cluster, function.name, invoker,
                                   seed, meta, node)
            yield from fn_cluster.lineage.replicate(function.name)

    def _advertise(self, fn_cluster, name, invoker, meta, node=None):
        """Push the new seed's advert ahead of demand (connplane only).

        Plain method, called at every point that records
        ``self.seeds[name]`` — provision, promotion, re-election,
        re-preparation, renewal.  A no-op without
        :meth:`FnCluster.enable_connplane`, or when the descriptor
        already vanished again (the advert would be stale on arrival).
        """
        plane = getattr(fn_cluster, "connplane", None)
        if plane is None:
            return
        if node is None:
            node = fn_cluster.deployment.node(invoker.machine)
        entry = node.service.lookup(meta.handler_id, meta.auth_key)
        if entry is None:
            return
        plane.advertise(name, node, entry[0], meta)

    def _lineage_register(self, fn_cluster, name, invoker, seed, meta,
                          node, spawn_replicas=False):
        """Stamp a (re-)provisioned seed into the lineage registry.

        Plain method; a no-op without :meth:`FnCluster.enable_lineage` or
        when the descriptor already vanished again.  With
        ``spawn_replicas`` the replica refill runs in the background
        (post-re-election — the failing start must not wait on K copies).
        """
        if fn_cluster.lineage is None:
            return
        entry = node.service.lookup(meta.handler_id, meta.auth_key)
        if entry is None:
            return
        fn_cluster.lineage.register_primary(name, invoker, seed, meta,
                                            entry[0], node)
        if spawn_replicas:
            fn_cluster.lineage.spawn_replicate(name)

    @staticmethod
    def _durable_name(function_name):
        """DFS key of a function's degradation checkpoint."""
        return "seed-durable-%s" % function_name

    def start(self, fn_cluster, invoker, function):
        node = fn_cluster.deployment.node(invoker.machine)
        try:
            _, _, meta = self.seeds[function.name]
            container = yield from node.fork_resume(meta)
        except _START_FAULTS:
            if fn_cluster.faults is None:
                raise
            self.counters.incr("start_faults")
            return (yield from self._recover_start(fn_cluster, invoker,
                                                   function))
        invoker.track(container)
        return container, "mitosis"

    def _recover_start(self, fn_cluster, invoker, function):
        """A fork_resume failed under faults: re-elect, degrade, or cold.

        Order of escalation (§5 adapted to failures): (1) promote the
        freshest seed replica (lineage layer, when armed) and fork from
        it; (2) re-elect the seed on a surviving invoker and retry the
        fork; (3) restore the provision-time durable checkpoint from the
        DFS; (4) plain cold start.  Generator returning
        (container, start_kind).
        """
        env = fn_cluster.env
        if fn_cluster.lineage is not None:
            seeds_entry = self.seeds.get(function.name)
            failed_handler = (seeds_entry[2].handler_id
                              if seeds_entry is not None else None)
            try:
                promoted = yield from fn_cluster.lineage.promote(
                    function.name, suspect_handler=failed_handler)
            except _START_FAULTS:
                promoted = None
            if promoted is not None:
                new_invoker, new_seed, new_meta = promoted
                self.seeds[function.name] = (new_invoker, new_seed,
                                             new_meta)
                self._advertise(fn_cluster, function.name, new_invoker,
                                new_meta)
                try:
                    node = fn_cluster.deployment.node(invoker.machine)
                    container = yield from node.fork_resume(new_meta)
                except _START_FAULTS:
                    pass
                else:
                    self.counters.incr("replica_rescued_starts")
                    self.counters.incr("recovered_forks")
                    invoker.track(container)
                    fn_cluster.lineage.spawn_replicate(function.name)
                    return container, "mitosis"
        try:
            meta = yield from self.reelect_seed(fn_cluster, function)
            node = fn_cluster.deployment.node(invoker.machine)
            container = yield from node.fork_resume(meta)
            self.counters.incr("recovered_forks")
            invoker.track(container)
            return container, "mitosis"
        except _START_FAULTS:
            pass
        durable = self._durable_name(function.name)
        if self.durable_seed and fn_cluster.dfs.exists(durable):
            source = DfsSource(env, fn_cluster.dfs, invoker.machine)
            container = yield from restore(env, invoker.runtime, source,
                                           durable, lazy=False)
            self.counters.incr("criu_degraded_starts")
            invoker.track(container)
            return container, "criu"
        container = yield from invoker.runtime.cold_start(function.image)
        self.counters.incr("cold_degraded_starts")
        invoker.track(container)
        return container, "cold-degraded"

    def reelect_seed(self, fn_cluster, function):
        """Re-provision a dead seed on a surviving invoker.  Generator
        returning the (possibly unchanged) fork meta.

        Single-flight per function: concurrent failing starts wait for
        one election instead of racing to cold-start N seeds.  Raises
        :class:`SeedUnavailable` when no invoker survives.
        """
        name = function.name
        pending = self._reelecting.get(name)
        if pending is not None:
            yield pending
        invoker, seed, meta = self.seeds[name]
        node = fn_cluster.deployment.node(invoker.machine)
        seed_ok = invoker.alive and seed in invoker.live_containers
        if seed_ok and node.service.lookup(
                meta.handler_id, meta.auth_key) is not None:
            # The seed and its descriptor are both fine (the failure was
            # transient, or an earlier election already replaced them).
            return meta
        gate = fn_cluster.env.event()
        self._reelecting[name] = gate
        try:
            if seed_ok:
                # Seed alive but its descriptor is gone (lease expired or
                # wiped): re-prepare in place, no election needed.
                new_meta = yield from node.fork_prepare(seed)
                self.seeds[name] = (invoker, seed, new_meta)
                self.counters.incr("seed_reprepares")
                self._lineage_register(fn_cluster, name, invoker, seed,
                                       new_meta, node, spawn_replicas=True)
                self._advertise(fn_cluster, name, invoker, new_meta,
                                node=node)
                return new_meta
            candidates = [i for i in fn_cluster.invokers
                          if i.alive and i.admitting and i is not invoker]
            if not candidates:
                candidates = [i for i in fn_cluster.invokers
                              if i.alive and i is not invoker]
            if not candidates:
                raise SeedUnavailable(
                    "no surviving invoker can host a seed for %r" % name)
            new_invoker = min(candidates,
                              key=lambda i: i.machine.memory.used)
            new_seed = yield from new_invoker.runtime.cold_start(
                function.image)
            new_invoker.track(new_seed)
            node = fn_cluster.deployment.node(new_invoker.machine)
            new_meta = yield from node.fork_prepare(new_seed)
            self.seeds[name] = (new_invoker, new_seed, new_meta)
            self.counters.incr("seed_reelections")
            self._lineage_register(fn_cluster, name, new_invoker, new_seed,
                                   new_meta, node, spawn_replicas=True)
            self._advertise(fn_cluster, name, new_invoker, new_meta,
                            node=node)
            return new_meta
        finally:
            self._reelecting.pop(name, None)
            gate.succeed()

    def on_invoker_lost(self, fn_cluster, invoker):
        """Proactively re-elect every seed the lost invoker hosted."""
        for name, (seed_invoker, _, _) in list(self.seeds.items()):
            if seed_invoker.index == invoker.index:
                fn_cluster.env.process(
                    self._reelect_driver(fn_cluster, name))

    def _reelect_driver(self, fn_cluster, name):
        function = fn_cluster.functions.get(name)
        if function is None:
            return
        if fn_cluster.lineage is not None:
            try:
                promoted = yield from fn_cluster.lineage.promote(name)
            except _START_FAULTS:
                promoted = None
            if promoted is not None:
                # A replica took over: no cold re-election needed.
                self.seeds[name] = promoted
                self.counters.incr("seed_promotions")
                fn_cluster.lineage.spawn_replicate(name)
                self._advertise(fn_cluster, name, promoted[0], promoted[2])
                return
        try:
            yield from self.reelect_seed(fn_cluster, function)
        except _START_FAULTS:
            # Best-effort: failing starts will retry/degrade on their own.
            pass

    def finish(self, fn_cluster, invoker, function, container):
        invoker.destroy(container)
        yield fn_cluster.env.timeout(0)

    def renew_seed(self, fn_cluster, function_name):
        """Re-prepare a seed's descriptor (the §5 staleness countermeasure).

        Generator returning the new fork meta; the old descriptor is
        retired once the new one is published.  Nothing schedules it:
        callers renew a seed explicitly.
        """
        invoker, seed, old_meta = self.seeds[function_name]
        node = fn_cluster.deployment.node(invoker.machine)
        meta = yield from node.fork_prepare(seed)
        node.retire_descriptor(old_meta)
        self.seeds[function_name] = (invoker, seed, meta)
        self._advertise(fn_cluster, function_name, invoker, meta, node=node)
        return meta
