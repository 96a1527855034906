"""Per-machine warm RC QP pools: the connection cache half of the plane.

State machine of one pooled QP (a :class:`_PoolEntry`):

    (created) --acquire--> BUSY (refs >= 1, pinned — never evicted)
    BUSY --release, refs hits 0, usable--> WARM (on the LRU)
    WARM --acquire--> BUSY        (a pool *hit*: no handshake, no 700/s slot)
    WARM --LRU overflow--> closed (evicted; memory charge freed)
    any  --peer crash / QP error--> closed (invalidated)

Capacity is counted in **bytes of warm-QP footprint**
(:data:`~repro.params.CONNPLANE_POOL_BYTES`, ``RCQP_FOOTPRINT_BYTES``
each) so eviction spends the same currency the machine's memory account
charges.  Busy (pinned) QPs may transiently exceed the budget — eviction
never touches an in-use QP.

Creation is lazy, single-flight, and doorbell-batched: every miss to a
peer enqueues a grant, and one *creator process* per peer drains the
queue in batches of up to :data:`~repro.params.CONNPLANE_CREATE_BATCH`
through :meth:`Rnic.create_rc_qps` — one serialized factory pass and one
shared 4 ms handshake per batch, which is what amortizes the 700/s
creation rate across a fork storm.  Misses that arrive while a batch is
mid-creation land in the *next* batch; once a QP exists, co-located
children share it through refcounted leases instead of creating more.
"""

from collections import OrderedDict
from functools import partial

from .. import params
from ..rdma import ConnectionError_
from ..sim import Event


class QpLease:
    """A refcounted claim on one pooled QP; release returns it warm.

    Co-located children forking from the same parent share one QP, each
    holding its own lease — the pool entry stays pinned until every
    lease is released (:meth:`release` is idempotent).
    """

    __slots__ = ("pool", "entry", "released")

    def __init__(self, pool, entry):
        self.pool = pool
        self.entry = entry
        self.released = False

    @property
    def qp(self):
        """The leased :class:`~repro.rdma.qp.RcQp`."""
        return self.entry.qp

    def release(self):
        """Drop this claim; at refcount zero the QP parks warm."""
        if self.released:
            return
        self.released = True
        self.pool._release(self.entry)


class _PoolEntry:
    __slots__ = ("qp", "peer_id", "refs", "pooled")

    def __init__(self, qp, peer_id):
        self.qp = qp
        self.peer_id = peer_id
        self.refs = 0
        #: True while the entry holds a memory charge in the pool;
        #: cleared exactly once, on eviction/invalidation/discard.
        self.pooled = True


class QpPool:
    """The warm RC QP cache on one machine."""

    def __init__(self, env, machine, counters,
                 capacity_bytes=params.CONNPLANE_POOL_BYTES):
        self.env = env
        self.machine = machine
        self.nic = machine.nic
        self.capacity_bytes = capacity_bytes
        #: Shared plane-wide counter set (pool_hits / pool_misses / ...).
        self.counters = counters
        #: peer machine_id -> [entries] (busy and warm).
        self._by_peer = {}
        #: Warm (refs == 0) entries in LRU order, oldest first.
        self._lru = OrderedDict()
        #: peer machine_id -> queued miss grants awaiting the creator.
        self._demand = {}
        #: peer machine_id -> the batch its creator is mid-creating, so a
        #: fail-stop wipe can fail those grants too (they already left
        #: ``_demand``).
        self._inflight = {}
        #: peer machine_id -> live creator Process.
        self._creators = {}
        #: Lease conservation: issued - released must equal the sum of
        #: live refcounts at quiescence (``audit_connplane``).
        self.leases_issued = 0
        self.leases_released = 0

    # --- Accounting ------------------------------------------------------------
    @property
    def pooled_bytes(self):
        """Total footprint of every pooled QP (busy + warm) — the memory
        charge this pool holds against its machine's account."""
        return sum(e.qp.footprint for entries in self._by_peer.values()
                   for e in entries)

    @property
    def warm_bytes(self):
        """Footprint of the evictable (refs == 0) entries only."""
        return sum(e.qp.footprint for e in self._lru)

    def entries(self):
        """Every live entry (the sanitizer's iteration surface)."""
        return [e for entries in self._by_peer.values() for e in entries]

    def live_refs(self):
        """Sum of refcounts across the pool."""
        return sum(e.refs for e in self.entries())

    # --- Acquire / release ------------------------------------------------------
    def acquire(self, peer_machine):
        """Claim a usable QP to ``peer_machine``.  Generator -> QpLease.

        Hit (a warm or shareable busy QP exists): zero simulated time —
        that is the whole point.  Miss: enqueue a grant for the peer's
        creator process, which batch-creates for every queued miss.
        """
        entry = self._pick(peer_machine.machine_id)
        if entry is not None:
            return self._lease(entry, shared=entry.refs > 0)
        self.counters.incr("pool_misses")
        grant = self._enqueue(peer_machine)
        lease = yield grant
        return lease

    def _enqueue(self, peer_machine):
        peer_id = peer_machine.machine_id
        grant = Event(self.env)
        self._demand.setdefault(peer_id, []).append(grant)
        grant._abandon = partial(self._abandon_grant, peer_id)
        if peer_id not in self._creators:
            self._creators[peer_id] = self.env.process(
                self._creator(peer_machine))
        return grant

    def _abandon_grant(self, peer_id, grant):
        """A miss was interrupted: withdraw it, or release the lease it
        was granted but will never see (mirrors Resource).

        A queued grant leaves ``_demand``.  A grant whose batch is being
        created is settled empty, so its creator parks the QP warm.
        """
        if grant.triggered:
            if grant._ok:
                grant._value.release()
            return
        queue = self._demand.get(peer_id)
        if queue is not None and grant in queue:
            queue.remove(grant)
        elif grant in self._inflight.get(peer_id, ()):
            grant.succeed()

    def _creator(self, peer_machine):
        """Drain queued misses toward one peer in batched factory passes."""
        peer_id = peer_machine.machine_id
        try:
            while self._demand.get(peer_id):
                batch = self._demand[peer_id][:params.CONNPLANE_CREATE_BATCH]
                del self._demand[peer_id][:len(batch)]
                self._inflight[peer_id] = batch
                try:
                    qps = yield from self.nic.create_rc_qps(
                        peer_machine, len(batch))
                except BaseException as exc:
                    for grant in batch:
                        if not grant.triggered:
                            grant.fail(exc)
                    raise
                if len(batch) > 1:
                    self.counters.incr("pool_batched_creates", len(batch) - 1)
                for grant, qp in zip(batch, qps):
                    entry = _PoolEntry(qp, peer_id)
                    self._by_peer.setdefault(peer_id, []).append(entry)
                    self.machine.memory.alloc(qp.footprint)
                    if grant.triggered:
                        if grant._ok:
                            # Abandoned mid-creation: park the QP warm.
                            self._lru[entry] = None
                        else:
                            # Pool wiped mid-creation: junk the fresh QP.
                            self._discard(entry)
                        continue
                    grant.succeed(self._lease(entry, hit=False))
                self._inflight.pop(peer_id, None)
                self._evict_over_capacity()
        finally:
            self._creators.pop(peer_id, None)
            self._inflight.pop(peer_id, None)

    def _pick(self, peer_id):
        """A usable entry toward ``peer_id``: warm first, else the least-
        shared busy one.  Unusable entries found on the way are discarded."""
        entries = self._by_peer.get(peer_id)
        if not entries:
            return None
        for entry in list(entries):
            if not entry.qp.usable:
                self._discard(entry)
        entries = self._by_peer.get(peer_id)
        if not entries:
            return None
        warm = [e for e in entries if e.refs == 0]
        if warm:
            return warm[0]
        return min(entries, key=lambda e: e.refs)

    def _lease(self, entry, hit=True, shared=False):
        if entry.refs == 0:
            self._lru.pop(entry, None)
        entry.refs += 1
        self.leases_issued += 1
        if hit:
            self.counters.incr("pool_shared" if shared else "pool_hits")
            tracer = self.env.tracer
            if tracer is not None and tracer.enabled:
                tracer.annotate("connplane_pool_hit", peer=entry.peer_id,
                                shared=shared)
        return QpLease(self, entry)

    def _release(self, entry):
        self.leases_released += 1
        if not entry.pooled:
            return  # invalidated while leased; charge already freed
        entry.refs -= 1
        if entry.refs > 0:
            return
        if not entry.qp.usable:
            self._discard(entry)
            return
        self._lru[entry] = None
        self._evict_over_capacity()

    def _evict_over_capacity(self):
        while self.warm_bytes > self.capacity_bytes and self._lru:
            entry, _ = self._lru.popitem(last=False)
            self._discard(entry, evicted=True)

    def _discard(self, entry, evicted=False):
        """Remove one entry from the pool, freeing its charge exactly once."""
        if not entry.pooled:
            return
        entry.pooled = False
        self._lru.pop(entry, None)
        entries = self._by_peer.get(entry.peer_id)
        if entries is not None:
            if entry in entries:
                entries.remove(entry)
            if not entries:
                del self._by_peer[entry.peer_id]
        entry.qp.close()
        self.machine.memory.free(entry.qp.footprint)
        if evicted:
            self.counters.incr("pool_evictions")

    # --- Prefill & invalidation --------------------------------------------------
    def prewarm(self, peer_machine):
        """Background acquire+release leaving one warm QP.  Generator."""
        peer_id = peer_machine.machine_id
        if self._by_peer.get(peer_id) or self._demand.get(peer_id):
            return
        self.counters.incr("pool_prewarms")
        # The release is immediate and unconditional — prewarm only parks
        # a warm QP; nothing escapes this function holding the lease.
        try:
            lease = yield from self.acquire(peer_machine)  # reprolint: disable=acquire-release-balance
        except ConnectionError_:
            # Best-effort, like prefetch: a crash wiped the pool while the
            # grant was queued, and the first fork's own miss connects.
            return
        lease.release()

    def invalidate_peer(self, peer_id):
        """Drop every QP toward a crashed/cut peer.

        Warm entries vanish immediately; busy (leased) ones are closed so
        the holder sees the real RC semantics — a ConnectionError on the
        next verb — and the entry leaves the pool with its charge freed.
        """
        for entry in list(self._by_peer.get(peer_id, ())):
            self.counters.incr("pool_invalidated")
            self._discard(entry)

    def invalidate_all(self):
        """Fail-stop wipe of the whole pool (this machine crashed).

        Queued misses fail loudly (a ConnectionError, like any verb on a
        dead NIC) instead of wedging their forks forever.
        """
        for entry in self.entries():
            self.counters.incr("pool_invalidated")
            self._discard(entry)
        pending = [g for queue in self._demand.values() for g in queue]
        pending.extend(g for batch in self._inflight.values() for g in batch)
        for grant in pending:
            if not grant.triggered:
                grant.fail(ConnectionError_(
                    "QP pool on m%d wiped: machine crashed"
                    % self.machine.machine_id))
        self._demand.clear()
