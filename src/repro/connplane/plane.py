"""The cluster-wide connection control plane.

One :class:`ConnPlane` per :class:`~repro.fn.framework.FnCluster`,
installed by ``enable_connplane()``.  It owns a
:class:`~repro.connplane.pool.QpPool` and an
:class:`~repro.connplane.advert.AdvertCache` per deployed machine and
wires itself into the seams the rest of the stack already exposes:

* **push on (re-)registration** — :meth:`advertise` runs whenever the
  policy records a seed (provision, re-election, promotion, renewal)
  and pushes the advert to every likely invoker in the
  background (a one-way UD datagram each, off the fork critical path);
* **piggyback on LB heartbeats** — :meth:`on_heartbeat` re-pushes any
  advert a healthy invoker is missing (it lost them in a crash, or a
  push datagram was dropped);
* **suspicion-aware prefill** — pushes skip invokers the health monitor
  considers suspect, so prefill never warms a machine about to be
  evicted;
* **invalidation** — machine crashes wipe the local pool + cache and
  every remote QP/advert pointing at the dead machine
  (:meth:`on_machine_crash`); lineage fences drop superseded adverts
  the moment a daemon learns the floor (:meth:`on_fence`); the pager
  reports dead peers so their pooled QPs die early
  (:meth:`on_peer_dead`).
"""

from .. import params
from ..metrics import CounterSet
from .advert import AdvertCache, AdvertEntry
from .pool import QpPool


class ConnPlane:
    """Swift-style connection control plane over one MITOSIS deployment."""

    def __init__(self, env, deployment, rpc):
        self.env = env
        self.deployment = deployment
        self.rpc = rpc
        self.counters = CounterSet()
        #: machine_id -> QpPool / AdvertCache.
        self.pools = {}
        self.caches = {}
        #: function name -> (node, descriptor, meta) of the live seed —
        #: what heartbeat piggybacking re-pushes to amnesiac invokers.
        self._published = {}
        #: Callable returning the cluster's invokers (set by the FN layer).
        self._invokers = lambda: ()
        for node in deployment.nodes():
            mid = node.machine.machine_id
            self.pools[mid] = QpPool(env, node.machine, self.counters)
            self.caches[mid] = AdvertCache(node.machine, self.counters)
            node.connplane = self
            node.service.connplane = self
            node.pager.connplane = self

    def attach_invokers(self, invokers_fn):
        """Tell the plane how to enumerate push targets."""
        self._invokers = invokers_fn

    # --- Fork-path accessors -----------------------------------------------------
    def pool(self, machine):
        """The QP pool on ``machine``."""
        return self.pools[machine.machine_id]

    def lookup(self, machine, fork_meta):
        """The cached advert for ``fork_meta`` on ``machine``, or None.

        A handle with an expired lease never hits — the caller must go
        through the authoritative renewal path first, exactly as on the
        unadvertised path.
        """
        cache = self.caches.get(machine.machine_id)
        if cache is None:
            return None
        if (fork_meta.lease_expires_at is not None
                and self.env.now > fork_meta.lease_expires_at):
            self.counters.incr("advert_misses")
            return None
        return cache.lookup(fork_meta)

    # --- Advertisement pushes ------------------------------------------------------
    def advertise(self, name, node, descriptor, meta):
        """Record ``name``'s live seed and push its advert ahead of demand.

        Called at every seed (re-)registration point; the pushes run in a
        background process so registration itself never waits on the wire.
        """
        self._published[name] = (node, descriptor, meta)
        targets = [invoker for invoker in self._invokers()
                   if self._eligible(invoker)]
        if targets:
            self.env.process(self._push(name, node, descriptor, meta, targets))

    def _eligible(self, invoker):
        """Suspicion-aware prefill: skip dead or suspect invokers."""
        if not getattr(invoker, "alive", True):
            return False
        return (getattr(invoker, "suspicion", 0.0)
                < params.FN_SUSPECT_THRESHOLD)

    def _push(self, name, node, descriptor, meta, targets):
        """Push one advert to ``targets``, one UD datagram each.  Generator."""
        for invoker in targets:
            if self._published.get(name, (None,) * 3)[2] is not meta:
                return  # superseded mid-push; the newer push takes over
            cache = self.caches.get(invoker.machine.machine_id)
            if cache is None or cache.has(name, meta):
                continue
            delivered = yield from self.rpc.push(
                node.machine, invoker.machine, descriptor.advert_bytes)
            self.counters.incr("advert_pushes")
            if not delivered:
                continue  # heartbeat piggybacking will retry later
            yield self.env.timeout(params.CONNPLANE_ADVERT_APPLY_LATENCY)
            cache.install(AdvertEntry(name, meta, descriptor, node.machine))
            self._maybe_prewarm(invoker, node.machine)

    def _maybe_prewarm(self, invoker, parent_machine):
        """Warm an RC QP toward the advertised seed ahead of the first fork."""
        try:
            node = self.deployment.node(invoker.machine)
        except ValueError:
            return
        if node.transport != "rc":
            return
        if invoker.machine.machine_id == parent_machine.machine_id:
            return
        pool = self.pools.get(invoker.machine.machine_id)
        if pool is not None:
            self.env.process(pool.prewarm(parent_machine))

    def on_heartbeat(self, invoker):
        """LB heartbeat piggyback: re-push anything this invoker is missing."""
        if not self._published or not self._eligible(invoker):
            return
        cache = self.caches.get(invoker.machine.machine_id)
        if cache is None:
            return
        for name, (node, descriptor, meta) in list(self._published.items()):
            if not cache.has(name, meta):
                self.env.process(
                    self._push(name, node, descriptor, meta, [invoker]))

    # --- Invalidation ---------------------------------------------------------------
    def on_machine_crash(self, machine_id):
        """Fail-stop wipe: local pool + cache die; remote state pointing at
        the dead machine (warm QPs, adverts, published seeds) dies with it."""
        pool = self.pools.get(machine_id)
        if pool is not None:
            pool.invalidate_all()
        cache = self.caches.get(machine_id)
        if cache is not None:
            cache.clear()
        for mid, other in self.pools.items():
            if mid != machine_id:
                other.invalidate_peer(machine_id)
        for mid, other in self.caches.items():
            if mid != machine_id:
                other.drop_machine(machine_id)
        for name in list(self._published):
            _, _, meta = self._published[name]
            if meta.machine_id == machine_id:
                del self._published[name]

    def on_peer_dead(self, machine, peer_machine_id):
        """Pager-observed dead peer: its pooled QPs on ``machine`` are junk."""
        pool = self.pools.get(machine.machine_id)
        if pool is not None:
            pool.invalidate_peer(peer_machine_id)

    def on_fence(self, name, floor):
        """Lineage fence: drop every advert of ``name`` below ``floor``."""
        for cache in self.caches.values():
            cache.drop_below_generation(name, floor)
        published = self._published.get(name)
        if published is not None:
            meta = published[2]
            if meta.generation is not None and meta.generation < floor:
                del self._published[name]

    # --- Quiescence -----------------------------------------------------------------
    def stats(self):
        """Counter snapshot plus pool/cache occupancy, for experiments."""
        return {
            "counters": self.counters.as_dict(),
            "pooled_bytes": {mid: pool.pooled_bytes
                             for mid, pool in self.pools.items()},
            "cached_adverts": {mid: len(cache)
                               for mid, cache in self.caches.items()},
        }
