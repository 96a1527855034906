"""Read-on-access remote paging: MITOSIS's extended VM data path (§4.3).

On a remote-bit page fault the pager:

1. checks the machine-local **shared page cache** — children of the same
   parent on one machine reuse already-fetched pages copy-on-write,
   saving both network transfers and memory (the MITOSIS-shared variant);
2. otherwise issues a **one-sided RDMA READ** through a cached DC queue
   pair, presenting the DCT key of the VMA's DC target on the owning
   elder machine;
3. if the RNIC rejects the request (target destroyed — the parent
   reclaimed pages in that VMA), **passively detects** the revocation and
   falls back to an RPC served by the owner's fallback daemon.

Every wire fetch is a *run* of contiguous pages pulled with one READ;
without batching a run is the faulting page alone.  With batching
(``batch_pages`` > 1, the paper's doorbell optimization from §4.1) a
demand fault additionally *faults around*: the pager sizes a contiguous
run of eligible remote PTEs and pulls it with one doorbelled READ — one
request packet plus per-page payloads — installing every page of the
run.  Prefetch windows ride the same runs.  Sharing, coalescing,
hedging, breakers, and every fallback apply to a run as to one page,
and a run whose READ fails degrades to runs of one, each taking the
exact fallback a single fault takes.

A one-page fault on the fail-free DC path (no span open, no RC
override, no hedging, no injected faults, no shared fabric) is the
simulator's unit of work, so :meth:`RemotePager._fetch_body` serves it
inline: the timeouts ``DcQp`` would schedule, in the same order, with no
QP or link generator below it.  Every other fetch goes through
:meth:`RemotePager._fetch_remote`, the reference the inline read must
match (``tests/test_golden.py`` runs every rig traced, which takes it).
"""

import os

from .. import params
from ..faults.errors import DeadlineExceeded, ParentUnreachable
from ..lineage.errors import StaleGeneration
from ..metrics import CounterSet
from ..rdma import ConnectionError_, RemoteAccessError
from ..rdma.rpc import RpcError, RpcTimeout
from ..resilience import CircuitBreaker, HedgeTracker
from ..sim import Interrupt


#: The in-flight mark of a lone fetch nobody waits on yet: the first
#: coalescer replaces it with the marker :class:`~repro.sim.Event` it
#: waits on, so an uncontended fetch creates no event.
_UNWATCHED = object()


def default_batch_pages():
    """Resolve the batched-paging default: the ``REPRO_PAGER_BATCH``
    environment variable (pages per doorbelled range), else
    :data:`params.PAGER_BATCH_PAGES_DEFAULT` (0 = off, the seed's
    page-at-a-time behavior).  The env var lets CI flip batching on for a
    whole validation run without threading a flag through every rig."""
    value = os.environ.get("REPRO_PAGER_BATCH")
    if value is None:
        return params.PAGER_BATCH_PAGES_DEFAULT
    return max(0, int(value))


class PagerResilience:
    """Per-pager gray-failure defenses: fallback breakers + read hedging."""

    def __init__(self):
        #: owner machine_id -> CircuitBreaker guarding the RPC fallback
        #: path to that peer.
        self.breakers = {}
        #: Latency window driving the hedge delay.
        self.hedge = HedgeTracker()

    def breaker_for(self, machine_id):
        """The (lazily created) breaker for one owner machine."""
        breaker = self.breakers.get(machine_id)
        if breaker is None:
            breaker = CircuitBreaker("pager-fallback-m%d" % machine_id)
            self.breakers[machine_id] = breaker
        return breaker


class SharedPageCache:
    """Per-machine cache of fetched remote pages, keyed by (descriptor, vpn).

    A dead frame reads as a miss, but its entry would stay until that
    exact key is looked up again — never, for a retired descriptor.  So
    each time the cache has doubled since its last sweep, :meth:`insert`
    drops every dead entry: amortized O(1) per insert, and the cache
    stays within twice the live frames it held at its last sweep.
    """

    def __init__(self):
        self._frames = {}
        self._sweep_at = 0

    def lookup(self, key):
        """The cached live frame for ``key``, a ``(descriptor uid, vpn)``
        pair, or None."""
        frame = self._frames.get(key)
        if frame is not None and not frame.live:
            del self._frames[key]
            return None
        return frame

    def insert(self, key, frame):
        """Cache a fetched frame under ``key``, a ``(descriptor uid,
        vpn)`` pair."""
        frames = self._frames
        frames[key] = frame
        if len(frames) >= self._sweep_at:
            self._frames = {key: cached for key, cached in frames.items()
                            if cached.live}
            self._sweep_at = 2 * len(self._frames)

    def __len__(self):
        return len(self._frames)


class RemotePager:
    """Installed as ``kernel.remote_pager`` on every MITOSIS machine."""

    def __init__(self, env, machine, net_daemon, rpc, deployment,
                 enable_sharing=True, prefetch_depth=0, batch_pages=None):
        self.env = env
        self.machine = machine
        self.net_daemon = net_daemon
        self.rpc = rpc
        #: The cluster deployment — used to resolve the owning shadow's
        #: frame content once the simulated wire transfer has completed.
        self.deployment = deployment
        self.enable_sharing = enable_sharing
        #: EXTENSION (beyond the paper, in the spirit of Leap [49]):
        #: on each demand fault, asynchronously pull up to this many
        #: subsequent pages of the same VMA, pipelining the RDMA latency
        #: behind execution.  0 disables (the paper's behaviour).
        self.prefetch_depth = prefetch_depth
        #: Doorbell batching (§4.1): maximum pages per contiguous range
        #: fetch.  <=1 disables — page-at-a-time, bit-identical to the
        #: pre-batching event sequence.  None picks up REPRO_PAGER_BATCH.
        self.batch_pages = (default_batch_pages()
                            if batch_pages is None else batch_pages)
        self.cache = SharedPageCache()
        self.counters = CounterSet()
        #: Per-call RPC deadline/retries for fallback calls; None (the
        #: default) keeps the fail-free fast path.  Armed alongside
        #: :meth:`Mitosis.connect_faults`.
        self._rpc_deadline = None
        self._rpc_retries = None
        #: None until :meth:`enable_resilience`: per-peer circuit breakers
        #: on the fallback path + hedged one-sided reads.
        self.resilience = None
        #: None until the cluster arms ``repro.lineage``: the runtime whose
        #: :meth:`~repro.lineage.runtime.LineageRuntime.failover` rescues
        #: orphaned faults by re-routing the owner slot to a replica.
        self.lineage = None
        #: None until the cluster arms ``repro.connplane``: dead peers the
        #: pager observes get their pooled QPs invalidated early.
        self.connplane = None
        #: (descriptor uid, vpn) -> Event, or :data:`_UNWATCHED` for a
        #: lone fetch nobody waits on yet: fault coalescing.  Concurrent
        #: children of one parent fault the same pages nearly in lockstep;
        #: the kernel serializes same-page faults so only one RDMA read
        #: flies and the rest reuse the arriving frame.
        self._inflight = {}
        #: owner machine_id -> (its NIC, the response leg of a READ from
        #: it): the inline read's route.  Racks are fixed at construction
        #: and the inline read runs only with no injector and no shared
        #: fabric, so a route never changes.
        self._routes = {}

    def enable_resilience(self):
        """Arm the gray-failure defenses on this pager; returns them."""
        if self.resilience is None:
            self.resilience = PagerResilience()
        return self.resilience

    # --- Fault entry points ------------------------------------------------------
    def fetch(self, task, vma, vpn, pte, _demand=True):
        """Service a remote-bit fault.  Returns a generator returning the
        content.

        Installs the PTE itself (so cache hits can share frames COW).

        With the lineage layer armed, an unreachable / fenced / vanished
        owner is one more recoverable condition: the fault *fails over*
        to a surviving lineage member (re-routing the owner slot for all
        future faults too) and retries, bounded by
        :data:`~repro.params.LINEAGE_RESCUE_MAX_FAILOVERS`.  Without a
        lineage the error propagates exactly as before.

        With no tracer enabled and no lineage armed this hands back the
        one fetch attempt itself, one frame fewer on every resume.
        """
        tracer = self.env.tracer
        if self.lineage is None and (tracer is None or not tracer.enabled):
            return self._fetch_body(task, vma, vpn, pte, _demand, None)
        return self._fetch_guarded(task, vma, vpn, pte, _demand, tracer)

    def _fetch_guarded(self, task, vma, vpn, pte, _demand, tracer):
        """:meth:`fetch` under a span or a lineage rescue loop.
        Generator."""
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.start_span(
                "page.fault" if _demand else "page.fetch",
                vpn=vpn, machine=self.machine.machine_id)
        try:
            rescues = 0
            while True:
                try:
                    return (yield from self._fetch_body(
                        task, vma, vpn, pte, _demand, span))
                except (ParentUnreachable, StaleGeneration, RpcError):
                    if (self.lineage is None
                            or rescues >= params.LINEAGE_RESCUE_MAX_FAILOVERS
                            or not self.lineage.failover(task, pte, vpn)):
                        raise
                    rescues += 1
                    self.counters.incr("orphan_rescues")
                    if span is not None:
                        span.event("orphan_rescue", attempt=rescues)
                    # The re-routed retry is not a fresh demand fault:
                    # don't spawn a second prefetch window.
                    _demand = False
        finally:
            if span is not None:
                span.end()

    def _fetch_body(self, task, vma, vpn, pte, _demand, span):
        """One fetch attempt against the current owner slot.  Generator.

        A shared-cache hit or a coalesced wait is served here, a
        fault-around run goes to :meth:`fetch_range`, and a lone page is
        read inline when only the default wire is armed, else by
        :meth:`_fetch_remote`.
        """
        owner_machine, owner_desc = self._owner_of(task, pte)
        if _demand and self.prefetch_depth > 0:
            self.env.process(self._prefetch_window(task, vma, vpn))
        kernel = task.kernel
        key = (owner_desc.uid, vpn)
        sharing = self.enable_sharing

        if sharing:
            inflight = self._inflight
            while True:
                frame = self.cache.lookup(key)
                if frame is not None:
                    # Local reuse: COW-map the already-fetched frame
                    # (§4.3).  Take the reference before yielding so a
                    # concurrent child teardown cannot free the frame
                    # under us.
                    kernel._charge_cgroup(task)
                    shared = kernel.frames.ref(frame)
                    yield self.env.timeout(
                        params.SHARED_PAGE_COPY_LATENCY)
                    if pte.present or task.state == "dead":
                        # Lost a race with a concurrent install of the
                        # same page (overlapping prefetch windows) or
                        # with task exit: drop the extra reference
                        # instead of (re-)mapping the PTE.
                        kernel.frames.unref(shared)
                    else:
                        pte.map_frame(shared, writable=vma.writable,
                                      cow=True)
                    self.counters.incr("shared_hits")
                    if span is not None:
                        span.set(served_from="shared_cache")
                    return frame.content
                marker = inflight.get(key)
                if marker is None:
                    break
                if marker is _UNWATCHED:
                    marker = inflight[key] = self.env.event()
                self.counters.incr("coalesced_faults")
                if span is not None:
                    span.event("coalesced_wait")
                yield marker

        if self.batch_pages > 1:
            # Fault-around (§4.1 doorbell batching): size a contiguous
            # run of eligible remote pages and pull them in one
            # doorbelled READ.  Congestion-aware backpressure: when the
            # owner's NIC is marked hot by the shared-fabric model, a
            # doorbelled range only deepens the incast — serve just the
            # faulting page and let the window retry once it cools.
            if self._fabric_hot(owner_machine):
                self.counters.incr("fabric_deferred_ranges")
            else:
                n = self._range_len(task, vma, vpn, pte, owner_desc)
                if n > 1:
                    return (yield from self.fetch_range(
                        task, vma, vpn, n, _demand=_demand))

        env = self.env
        if sharing:
            self._inflight[key] = _UNWATCHED
        try:
            vd = owner_desc.find_vma(vpn)
            nic = self.net_daemon.nic
            fabric = nic.fabric
            if (span is not None or vd is None or vd.dct_target_id is None
                    or fabric.faults is not None or fabric.net is not None
                    or self.resilience is not None
                    or getattr(task, "_mitosis_rcqps", None) is not None):
                content = yield from self._fetch_remote(
                    task, vma, vpn, (pte,), owner_machine, owner_desc)
                return content
            # Only the default wire is armed: read the page here, with no
            # generator below this one, as DcQp._read reads one page at
            # (slow, extra) = (1.0, 0.0).  Every float is formed as _read
            # forms it and the elided terms are exact identities, so the
            # events are the general path's.
            target_id, target_key = vd.dct_target_id, vd.dct_key
            dcqp = self.net_daemon.dcqp()
            route = self._routes.get(owner_machine.machine_id)
            if route is None:
                route = self._routes[owner_machine.machine_id] = (
                    fabric.nic_of(owner_machine),
                    params.RDMA_READ_LATENCY / 2.0
                    + fabric.wire_latency(self.machine, owner_machine))
            peer_nic, response = route
            if target_id != dcqp.last_target_id:
                yield env.timeout(params.DCT_RECONNECT_LATENCY)
                dcqp.last_target_id = target_id
            yield env.timeout(response + params.DCT_REQUEST_OVERHEAD)
            if not peer_nic.admits_dct(target_id, target_key):
                yield env.timeout(response)  # the NAK
                nic.counters.incr("dc_read_rejected")
                self._count_fallback("revocation_fallback", vpn)
            else:
                yield env.timeout_at(
                    peer_nic.occupy(params.PAGE_SIZE
                                    + params.DCT_EXTRA_HEADER_BYTES)
                    + response)
                nic.counters.incr("dc_read")
                content = self._resolve_content(owner_machine, owner_desc,
                                                vpn)
                if content is not None:
                    self.counters.incr("rdma_reads")
                    self._install(task, pte, vma, content, key)
                    return content
                self._count_fallback("race_fallback", vpn)
            content = yield from self.fetch_fallback(task, vma, vpn, pte)
            self._install(task, pte, vma, content, key)
            return content
        finally:
            if sharing:
                marker = self._inflight.pop(key)
                # Popped, the marker is unreachable: wake coalescers only.
                if marker is not _UNWATCHED and marker.callbacks:
                    marker.succeed()

    # reprolint: hot-path
    def _fetch_remote(self, task, vma, vpn, ptes, owner_machine, owner_desc):
        """The wire fetch of the run ``ptes`` (contiguous pages from
        ``vpn``, marked in flight by the caller): one one-sided READ, else
        the RPC fallback.  Generator returning the first page's content.

        A run of one is a single fault, which counts why it fell back:
        a NAK (revocation), a transport timeout (dead parent) or a frame
        that vanished mid-transfer (race).  One NAK or timeout answers for
        a whole longer run — the same target covers every page behind it —
        so such a run degrades page by page, each page a run of one that
        re-detects its own reason.
        """
        n = len(ptes)
        vd = owner_desc.find_vma(vpn)
        reason = None
        if vd is not None and vd.dct_target_id is not None:
            rcqp = self._rc_override(task, owner_machine)
            try:
                if rcqp is not None:
                    # Ablation mode: RC transport without connection-based
                    # access control (the "base" design of Fig. 15 b).
                    yield from rcqp.read_batch(n, params.PAGE_SIZE)
                elif self.resilience is not None:
                    winner = yield from self._hedged_read(
                        owner_machine, owner_desc, vd, vpn, n)
                    if winner is not None:
                        # A rack-local replica leg won the hedge: resolve
                        # the page against the host that actually served it.
                        owner_machine, owner_desc = winner
                else:
                    dcqp = self.net_daemon.dcqp()
                    yield from dcqp.read_batch(owner_machine, vd.dct_target_id,
                                               vd.dct_key, n, params.PAGE_SIZE)
            except RemoteAccessError:
                # Passive detection: the parent revoked this VMA's target.
                reason = "revocation_fallback"
            except ConnectionError_:
                # Unlike a NAK, a transport timeout means the owner may be
                # *dead*, not revoking — still try the fallback daemon (the
                # owner may come back, or an elder may answer), but count
                # it separately so recovery metrics can tell the two apart.
                reason = "dead_parent_fallback"
            else:
                if n > 1:
                    self.counters.incr("batched_reads")
                    self.counters.incr("batched_read_pages", n)
                first = None
                page = vpn
                for pte in ptes:
                    content = self._resolve_content(owner_machine, owner_desc,
                                                    page)
                    if content is None:
                        # The frame vanished mid-transfer (reclaim raced
                        # the read): treat exactly like a NAK, for this
                        # page alone.
                        self._count_fallback("race_fallback", page)
                        content = yield from self.fetch_fallback(
                            task, vma, page, pte)
                    else:
                        self.counters.incr("rdma_reads")
                    self._install(task, pte, vma, content,
                                  (owner_desc.uid, page))
                    if page == vpn:
                        first = content
                    page += 1
                return first

        # No direct target, or the READ failed: a longer run goes page by
        # page, a run of one to the RPC fallback.
        if n > 1:
            if reason is not None:
                self.counters.incr("batch_fallbacks")
            first = None
            page = vpn
            for pte in ptes:
                if pte.present:
                    content = pte.frame.content
                else:
                    content = yield from self._fetch_remote(
                        task, vma, page, (pte,), owner_machine, owner_desc)
                if page == vpn:
                    first = content
                page += 1
            return first

        pte = ptes[0]
        if reason is not None:
            self._count_fallback(reason, vpn)
        if reason == "dead_parent_fallback" and self.connplane is not None:
            # A transport timeout is the plane's earliest dead-peer signal:
            # junk every pooled QP toward the owner now rather than letting
            # later acquires rediscover it one by one.
            self.connplane.on_peer_dead(self.machine, owner_machine.machine_id)
        content = yield from self.fetch_fallback(task, vma, vpn, pte)
        self._install(task, pte, vma, content, (owner_desc.uid, vpn))
        return content

    def _count_fallback(self, reason, vpn):
        """Count ``reason + "s"`` and annotate ``reason``: one page fell
        back to the RPC path."""
        self.counters.incr(reason + "s")
        tracer = self.env.tracer
        if tracer is not None and tracer.enabled:
            tracer.annotate(reason, vpn=vpn)

    # reprolint: hot-path
    def fetch_range(self, task, vma, vpn, n, _demand=True):
        """Service ``n`` contiguous remote pages with ONE doorbelled READ.

        Generator returning the content of the first page (the faulting
        one for demand entry).  The whole run is marked in-flight so
        concurrent faulters of *any* page in it coalesce onto this fetch,
        every page is installed (and its remote bit cleared), and
        counters are charged per page.  The caller must have screened the
        run with :meth:`_range_len` in the same step (no yields between).
        """
        if n <= 1:
            pte = task.address_space.page_table.entry(vpn)
            return (yield from self.fetch(task, vma, vpn, pte,
                                          _demand=False))
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.start_span("page.range", vpn=vpn, n=n,
                                     machine=self.machine.machine_id)
        try:
            table = task.address_space.page_table
            ptes = [table.entry(vpn + i) for i in range(n)]
            owner_machine, owner_desc = self._owner_of(task, ptes[0])
            keys = [(owner_desc.uid, vpn + i) for i in range(n)]
            fetch_done = None
            if self.enable_sharing:
                fetch_done = self.env.event()
                for key in keys:
                    self._inflight[key] = fetch_done
            try:
                content = yield from self._fetch_remote(
                    task, vma, vpn, ptes, owner_machine, owner_desc)
            finally:
                if fetch_done is not None:
                    for key in keys:
                        self._inflight.pop(key, None)
                    if fetch_done.callbacks:
                        fetch_done.succeed()
            if _demand:
                self.counters.incr("fault_around_pages", n - 1)
            return content
        finally:
            if span is not None:
                span.end()

    def _range_len(self, task, vma, vpn, pte, owner_desc, limit=None):
        """Size of the contiguous batched run starting at ``vpn`` (>= 1).

        A run extends while the next PTE is an eligible remote page with a
        direct parent PA from the *same* owner hop, nobody is already
        fetching it, and the shared cache doesn't hold it; it is capped by
        ``batch_pages``, the VMA end, the caller's ``limit``, and — so
        fault-around can never OOM a task the demand fault alone would
        not have — the cgroup's remaining page headroom.
        """
        run_cap = min(self.batch_pages, vma.end_vpn - vpn)
        if limit is not None:
            run_cap = min(run_cap, limit)
        mem_limit = getattr(task.cgroup, "memory_limit", None)
        if mem_limit is not None:
            headroom = (mem_limit - task.address_space.resident_bytes
                        ) // params.PAGE_SIZE
            run_cap = min(run_cap, max(1, int(headroom)))
        if run_cap <= 1:
            return 1
        table = task.address_space.page_table
        uid = owner_desc.uid
        n = 1
        while n < run_cap:
            nxt = table.entry(vpn + n)
            key = (uid, vpn + n)
            if (nxt is None or nxt.present or not nxt.remote
                    or nxt.remote_pfn is None
                    or nxt.owner_index != pte.owner_index
                    or key in self._inflight
                    or (self.enable_sharing
                        and self.cache.lookup(key) is not None)):
                break
            n += 1
        return n

    def _hedged_read(self, owner_machine, owner_desc, vd, vpn, npages):
        """One-sided READ of a run of ``npages`` with request cloning.
        Generator.

        Start the primary DCT read; once it has straggled past the
        tracker's tail-derived delay, clone the request onto a second DC
        path.  First completion wins, the straggler is cancelled, and
        exactly one caller resumes with the result — so the single
        install pass downstream can never double-commit a page.  The
        tracker records per-page latency and the hedge delay scales by
        the run length, so runs of every length share one straggler
        model.

        Topology-aware hedging: when the shared-fabric layer and seed
        lineage are both armed and the primary owner sits across the
        spine, the hedge leg of a run of one prefers a *rack-local*
        replica over cloning onto the same congested cross-rack path.
        Returns the ``(machine, descriptor)`` the winning alternate served
        from — the caller must resolve content against it — or None when
        the primary owner answered (including every pre-fabric behaviour).
        """
        res = self.resilience
        started = self.env.now
        alternate = None
        if npages == 1:
            alternate = self._rack_local_alternate(owner_machine,
                                                   owner_desc, vpn)

        def _leg(machine, leg_vd):
            dcqp = self.net_daemon.dcqp()
            try:
                return (yield from dcqp.read_batch(
                    machine, leg_vd.dct_target_id, leg_vd.dct_key, npages,
                    params.PAGE_SIZE))
            except Interrupt:
                return None  # cancelled straggler

        primary = self.env.process(_leg(owner_machine, vd))
        timer = self.env.timeout(res.hedge.delay() * npages)
        yield self.env.any_of([primary, timer])
        if primary.triggered:
            res.hedge.record((self.env.now - started) / npages)
            return None
        self.counters.incr("hedges_issued")
        tracer = self.env.tracer
        if tracer is not None and tracer.enabled:
            tracer.annotate("hedge_issued",
                            peer=owner_machine.machine_id, npages=npages)
        if alternate is not None:
            alt_machine, alt_desc, alt_vd = alternate
            self.counters.incr("hedges_rack_local")
            if tracer is not None and tracer.enabled:
                tracer.annotate("hedge_rack_local",
                                peer=alt_machine.machine_id)
            hedge = self.env.process(_leg(alt_machine, alt_vd))
        else:
            hedge = self.env.process(_leg(owner_machine, vd))
        try:
            yield self.env.any_of([primary, hedge])
        except (RemoteAccessError, ConnectionError_):
            # A NAK or transport failure on either leg is authoritative:
            # both legs read the same lineage page, and the caller's
            # fallback (or the lineage rescue loop) re-detects the
            # precise per-owner condition.
            self._cancel_leg(primary)
            self._cancel_leg(hedge)
            raise
        if primary.triggered:
            self.counters.incr("hedges_wasted")  # the clone was needless
            if tracer is not None and tracer.enabled:
                tracer.annotate("hedge_wasted")
            self._cancel_leg(hedge)
            winner = None
        else:
            self.counters.incr("hedges_won")
            if tracer is not None and tracer.enabled:
                tracer.annotate("hedge_won")
            self._cancel_leg(primary)
            winner = ((alt_machine, alt_desc) if alternate is not None
                      else None)
        res.hedge.record((self.env.now - started) / npages)
        return winner

    def _rack_local_alternate(self, owner_machine, owner_desc, vpn):
        """A rack-local replica leg for topology-aware hedging, or None.

        Only meaningful when the shared fabric is armed (congestion is
        what makes locality matter) and the owner's lineage has a live
        member in this pager's rack whose published descriptor covers
        the page; a rack-local *primary* needs no alternate.
        """
        if self.lineage is None or self.deployment.fabric.net is None:
            return None
        if owner_machine.rack == self.machine.rack:
            return None
        name = getattr(owner_desc, "lineage", None)
        member = self.lineage.rack_local_member(name, self.machine.rack,
                                                vpn)
        if member is None:
            return None
        alt_machine, alt_desc = member
        if alt_machine.machine_id == owner_machine.machine_id:
            return None
        alt_vd = alt_desc.find_vma(vpn)
        if alt_vd is None or alt_vd.dct_target_id is None:
            return None
        return alt_machine, alt_desc, alt_vd

    def _fabric_hot(self, owner_machine):
        """True when congestion-aware backpressure is armed AND the
        owner's access links sit past the hot threshold.  Deferral is a
        *resilience* behaviour (it trades range/prefetch throughput for
        incast headroom), so it needs both the shared-fabric layer and
        ``enable_resilience()`` — one ``is None`` test each with the
        layers off, the repo-wide zero-cost gating contract."""
        if self.resilience is None:
            return False
        net = self.deployment.fabric.net
        if net is None:
            return False
        return net.nic_hot(owner_machine.machine_id)

    @staticmethod
    def _cancel_leg(proc):
        """Cancel a losing hedge leg: interrupt if alive, defuse either way."""
        if proc.is_alive:
            proc.interrupt("hedge loser cancelled")
        proc.defuse()

    # reprolint: hot-path
    def _prefetch_window(self, task, vma, vpn):
        """Asynchronously fetch the next pages of the VMA (extension).

        The window is carved into contiguous eligible runs, each fetched
        as a demand fault would fetch it (a run of one without batching).
        Pages another fetch already has in flight are simply skipped —
        prefetch is best-effort, so waiting on a coalesced fault would
        only serialize the window behind it.
        """
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled:
            # Prefetch runs asynchronously and outlives the demand fault
            # that spawned it, so it anchors its own root rather than
            # escaping the (already closed) fault span's interval.
            span = tracer.start_span("page.prefetch_window", root=True,
                                     vpn=vpn,
                                     machine=self.machine.machine_id)
        try:
            table = task.address_space.page_table
            end = min(vpn + 1 + self.prefetch_depth, vma.end_vpn)
            next_vpn = vpn + 1
            while next_vpn < end:
                pte = table.entry(next_vpn)
                if (pte is None or pte.present or not pte.remote
                        or pte.remote_pfn is None):
                    next_vpn += 1
                    continue
                owner_machine, owner_desc = self._owner_of(task, pte)
                if (owner_desc.uid, next_vpn) in self._inflight:
                    next_vpn += 1
                    continue
                if self._fabric_hot(owner_machine):
                    # Shed the rest of the window: prefetch is the first
                    # load an incast-congested seed NIC can do without.
                    self.counters.incr("fabric_deferred_prefetch")
                    return
                run = self._range_len(task, vma, next_vpn, pte, owner_desc,
                                      limit=end - next_vpn)
                try:
                    if run > 1:
                        yield from self.fetch_range(task, vma, next_vpn, run,
                                                    _demand=False)
                    else:
                        yield from self.fetch(task, vma, next_vpn, pte,
                                              _demand=False)
                except Exception:
                    return  # prefetch is best-effort; demand faults recover
                for i in range(run):
                    fetched = table.entry(next_vpn + i)
                    if fetched is not None and fetched.present:
                        if fetched.remote:
                            fetched.clear_remote()
                        self.counters.incr("prefetched_pages")
                next_vpn += run
        finally:
            if span is not None:
                span.end()

    def fetch_fallback(self, task, vma, vpn, pte):
        """RPC to the owner's fallback daemon (§4.3).  Generator.

        An :class:`RpcError` from the daemon (bad meta, multi-hop "not
        owned by this hop") propagates unchanged — that protocol predates
        fault injection.  A timeout or dead connection becomes
        :class:`ParentUnreachable` so the invoker layer can recover.

        With resilience armed the call is additionally guarded by the
        owner's circuit breaker (an open circuit fails fast instead of
        hammering a gray peer), its deadline is clamped to the
        invocation's remaining budget, and every resend is charged to the
        invocation's shared retry budget.
        """
        owner_machine, owner_desc = self._owner_of(task, pte)
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.start_span("page.fallback", vpn=vpn,
                                     machine=self.machine.machine_id,
                                     peer=owner_machine.machine_id)
        try:
            breaker = (self.resilience.breaker_for(owner_machine.machine_id)
                       if self.resilience is not None else None)
            if breaker is not None and not breaker.allow(self.env.now):
                self.counters.incr("breaker_fast_fails")
                if span is not None:
                    span.event("breaker_fast_fail")
                raise ParentUnreachable(
                    "fallback page %d: circuit to m%d is open"
                    % (vpn, owner_machine.machine_id))
            deadline = self._rpc_deadline
            budget = None
            ctx = getattr(task, "resilience_ctx", None)
            if ctx is not None:
                budget = ctx.retry_budget
                remaining = ctx.remaining(self.env.now)
                if remaining <= 0.0:
                    raise DeadlineExceeded(
                        "page %d fallback: invocation deadline passed" % vpn)
                if remaining != float("inf"):
                    deadline = min(params.RPC_DEFAULT_DEADLINE
                                   if deadline is None else deadline,
                                   remaining)
            self.counters.incr("fallback_rpcs")
            args = {"handler_id": owner_desc.handler_id,
                    "auth_key": owner_desc.auth_key,
                    "vpn": vpn}
            if owner_desc.generation is not None:
                # Fencing token (repro.lineage): a superseded owner rejects
                # the page RPC with StaleGeneration instead of serving it.
                args["generation"] = owner_desc.generation
            try:
                content = yield from self.rpc.call(
                    self.machine, owner_machine, "mitosis.fallback_page",
                    args,
                    request_bytes=params.FALLBACK_RPC_REQUEST_BYTES,
                    deadline=deadline, retries=self._rpc_retries,
                    budget=budget)
            except (RpcTimeout, ConnectionError_) as exc:
                if breaker is not None:
                    breaker.record_failure(self.env.now)
                raise ParentUnreachable(
                    "fallback page %d from m%d failed: %s"
                    % (vpn, owner_machine.machine_id, exc))
            except RpcError:
                # An authoritative rejection came from a *live* daemon: the
                # peer is healthy, so the breaker must not open on it.
                if breaker is not None:
                    breaker.record_success(self.env.now)
                raise
            if breaker is not None:
                breaker.record_success(self.env.now)
            return content
        finally:
            if span is not None:
                span.end()

    # --- Internals -----------------------------------------------------------------
    def _owner_of(self, task, pte):
        """Map the PTE's 4-bit owner index to (machine, descriptor) (§4.4)."""
        index = pte.owner_index
        if not task.predecessors:
            raise LookupError("task %r has no fork lineage" % (task,))
        if index >= len(task.predecessors):
            raise LookupError(
                "owner index %d beyond lineage depth %d"
                % (index, len(task.predecessors)))
        return task.predecessors[index]

    def _rc_override(self, task, owner_machine):
        rcqps = getattr(task, "_mitosis_rcqps", None)
        if rcqps is None:
            return None
        return rcqps.get(owner_machine.machine_id)

    def _resolve_content(self, owner_machine, owner_desc, vpn):
        """What the RDMA read actually returned.

        The wire cost was already simulated; here we look up the owning
        shadow's live frame.  Returns None when the frame is gone (the
        caller treats that as a failed read).
        """
        service = self.deployment.descriptor_service(owner_machine)
        entry = service.lookup(owner_desc.handler_id, owner_desc.auth_key)
        if entry is None:
            return None
        _, shadow_task = entry
        shadow_pte = shadow_task.address_space.page_table.entry(vpn)
        if shadow_pte is None or not shadow_pte.present:
            return None
        if not shadow_pte.frame.live:
            return None
        return shadow_pte.frame.content

    def _install(self, task, pte, vma, content, key):
        """Map ``content`` into ``pte`` and cache the frame under ``key``,
        the page's ``(descriptor uid, vpn)``."""
        # A fetch that lost a race with task exit (an async prefetch, or
        # a demand fetch stalled behind a congested fabric) must not map
        # fresh frames into the dead page table — teardown already swept
        # it, so anything installed now would leak.
        if pte.present or task.state == "dead":
            return
        kernel = task.kernel
        kernel._charge_cgroup(task)
        frame = pte.map_frame(kernel.frames.alloc(content=content),
                              writable=vma.writable)
        pte.clear_remote()
        if self.enable_sharing:
            self.cache.insert(key, frame)
