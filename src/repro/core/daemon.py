"""The per-machine MITOSIS daemons (§3.2, Fig. 4).

* :class:`NetworkDaemon` — owns a small cache of DC queue pairs so the
  data path never creates connections at fork time (§4.2), plus the DC
  target pool.
* Fallback/descriptor RPC handlers — the two kernel threads serving
  descriptor-address queries and fallback page reads (§4.1, §4.3).
"""

from .. import params
from ..lineage.errors import StaleGeneration
from ..metrics import CounterSet
from ..rdma import RpcError
from ..rdma.qp import DcQp


class NetworkDaemon:
    """Caches DCQPs and hands them out round-robin to faulting processes."""

    def __init__(self, env, nic):
        self.env = env
        self.nic = nic
        self._dcqps = [DcQp(nic) for _ in range(params.NET_DAEMON_DCQPS)]
        self._next = 0

    def dcqp(self):
        """A cached DC queue pair — zero connection cost at fork time."""
        qp = self._dcqps[self._next]
        self._next = (self._next + 1) % params.NET_DAEMON_DCQPS
        return qp


class DescriptorService:
    """Parent-side registry of descriptors + shadow containers, with the
    RPC handlers children call during fork_resume and fallback."""

    def __init__(self, env, machine, rpc):
        self.env = env
        self.machine = machine
        self.rpc = rpc
        #: handler_id -> (descriptor, shadow_task)
        self._table = {}
        #: handler_id -> absolute lease expiry time (only when leases are
        #: armed).  Kept beside ``_table`` so the (descriptor, shadow)
        #: tuple shape every caller relies on is unchanged.
        self._leases = {}
        #: True once :meth:`enable_leases` has run; False (the seed
        #: behaviour) publishes descriptors that never expire.
        self.leases_enabled = False
        self.counters = CounterSet()
        #: handler_id -> [(child machine_id, child pid)] — only populated
        #: under the *active* control model, which must know every remote
        #: child so it can synchronize with them before reclaiming (§3).
        self._children = {}
        #: handler_id -> [lineage name, generation] for lineage-stamped
        #: descriptors (``repro.lineage``).  Entries survive :meth:`expire`
        #: as tombstones so a post-fence caller gets the precise
        #: :class:`~repro.lineage.errors.StaleGeneration` rejection.
        self._lineage = {}
        #: lineage name -> fence floor this daemon has learned; any
        #: handler or caller generation *below* the floor is rejected.
        self._fences = {}
        #: Audit trails for ``audit_lineage``: every page/descriptor serve
        #: from a lineage-stamped handler, and every fence applied here.
        #: Plain appends — no events, so fail-free runs are unchanged.
        self.serve_log = []
        self.fence_log = []
        #: Connection control plane (``repro.connplane``); None keeps
        #: fence application free of advert bookkeeping (the seed path).
        self.connplane = None
        endpoint = rpc.endpoint(machine)
        endpoint.register("mitosis.query_descriptor", self._handle_query)
        endpoint.register("mitosis.fallback_page", self._handle_fallback)
        endpoint.register("mitosis.register_child", self._handle_register)
        endpoint.register("mitosis.renew_lease", self._handle_renew)
        endpoint.register("mitosis.adopt_generation", self._handle_adopt)
        endpoint.register("mitosis.fence_lineage", self._handle_fence)

    # --- Leases (rFaaS-style expiry of RDMA-exposed state) ------------------------
    def enable_leases(self):
        """Arm lease expiry: descriptors now die unless renewed within
        :data:`~repro.params.LEASE_DURATION`."""
        self.leases_enabled = True

    def lease_expiry(self, handler_id):
        """Absolute expiry time of a descriptor's lease, or None."""
        return self._leases.get(handler_id)

    def touch_lease(self, handler_id):
        """Renew a published descriptor's lease; returns the new expiry."""
        if not self.leases_enabled or handler_id not in self._table:
            return None
        expiry = self.env.now + params.LEASE_DURATION
        self._leases[handler_id] = expiry
        return expiry

    def _lease_expired(self, handler_id):
        expiry = self._leases.get(handler_id)
        return expiry is not None and self.env.now > expiry

    def expire(self, handler_id):
        """Reclaim one descriptor whose lease ran out: free the memory
        charge, revoke its shadow's DC targets, and exit the shadow."""
        entry = self._table.pop(handler_id, None)
        self._leases.pop(handler_id, None)
        if entry is None:
            return False
        descriptor, shadow = entry
        self.machine.memory.free(descriptor.nbytes)
        self._destroy_shadow(shadow)
        self.counters.incr("leases_expired")
        return True

    def sweep_leases(self):
        """Expire every over-due descriptor; returns how many died."""
        expired = [hid for hid in list(self._table)
                   if self._lease_expired(hid)]
        for hid in expired:
            self.expire(hid)
        return len(expired)

    def _destroy_shadow(self, shadow):
        nic = self.machine.nic
        for vma in shadow.address_space.vmas:
            target = getattr(vma, "dc_target", None)
            if target is not None and target.active and nic is not None:
                nic.destroy_target(target)
        if shadow.state != "dead":
            shadow.exit()

    # --- Registry ---------------------------------------------------------------
    def publish(self, descriptor, shadow_task):
        """Register a descriptor + shadow pair; charges descriptor memory."""
        self.machine.memory.alloc(descriptor.nbytes)
        self._table[descriptor.handler_id] = (descriptor, shadow_task)
        if self.leases_enabled:
            self._leases[descriptor.handler_id] = (
                self.env.now + params.LEASE_DURATION)

    def retract(self, descriptor):
        """Unpublish a descriptor and free its memory."""
        entry = self._table.pop(descriptor.handler_id, None)
        self._leases.pop(descriptor.handler_id, None)
        self._lineage.pop(descriptor.handler_id, None)
        if entry is not None:
            self.machine.memory.free(descriptor.nbytes)

    def lookup(self, handler_id, auth_key):
        """The (descriptor, shadow) for valid (handler id, key), else None.

        With leases armed, an over-due descriptor is expired lazily right
        here — the first access after its deadline reclaims it.
        """
        if self._leases and self._lease_expired(handler_id):
            self.expire(handler_id)
            return None
        entry = self._table.get(handler_id)
        if entry is None or entry[0].auth_key != auth_key:
            return None
        return entry

    def on_machine_crash(self):
        """Fail-stop wipe: drop every descriptor, freeing all its charges.

        The memory accounting must balance on *every* exit path — crash
        included — so the machine restarts with a clean slate instead of
        leaking phantom descriptor bytes.
        """
        for handler_id, (descriptor, shadow) in list(self._table.items()):
            self.machine.memory.free(descriptor.nbytes)
            self._destroy_shadow(shadow)
            self.counters.incr("descriptors_lost")
        self._table.clear()
        self._leases.clear()
        self._children.clear()
        # Lineage stamps and learned fences are volatile too: a revived
        # machine knows nothing until fence delivery reaches it again
        # (the audit trails are instrumentation and survive).
        self._lineage.clear()
        self._fences.clear()

    # --- Lineage fencing (repro.lineage) -----------------------------------------
    def assign_lineage(self, handler_id, name, generation):
        """Stamp a published descriptor with its lineage identity."""
        entry = self._table.get(handler_id)
        if entry is None:
            raise KeyError("cannot stamp unpublished handler %r"
                           % (handler_id,))
        descriptor = entry[0]
        descriptor.lineage = name
        descriptor.generation = generation
        self._lineage[handler_id] = [name, generation]

    def fence_floor(self, name):
        """The fence generation this daemon has learned for ``name``."""
        return self._fences.get(name, 0)

    def apply_fence(self, name, generation):
        """Raise the local fence floor for ``name`` (max-merge) and expire
        every handler of that lineage stamped below the new floor —
        a fenced daemon must stop serving its superseded descriptors."""
        current = self._fences.get(name, 0)
        if generation > current:
            self._fences[name] = generation
        floor = self._fences.get(name, generation)
        self.fence_log.append((self.env.now, name, floor))
        for handler_id, info in list(self._lineage.items()):
            if info[0] == name and info[1] < floor:
                if handler_id in self._table:
                    self.expire(handler_id)
                    self.counters.incr("descriptors_fenced")
        if self.connplane is not None:
            # Fences compose with advertisement: a superseded generation
            # must stop serving from advert caches too, everywhere.
            self.connplane.on_fence(name, floor)
        return floor

    def _fence_check(self, handler_id, caller_generation=None):
        """Reject fenced handlers/callers.  Raises
        :class:`~repro.lineage.errors.StaleGeneration`; returns the
        handler's lineage info (or None for unstamped handlers).

        Fencing tokens compare by *ordering only*: a holder is stale
        exactly when its generation sorts below the fence floor.
        """
        info = self._lineage.get(handler_id)
        if info is None:
            return None
        name, generation = info
        fence = self._fences.get(name)
        if fence is not None:
            if generation < fence:
                raise StaleGeneration(
                    "handler %r of lineage %r fenced: generation %d "
                    "superseded by fence %d"
                    % (handler_id, name, generation, fence))
            if caller_generation is not None and caller_generation < fence:
                raise StaleGeneration(
                    "caller of lineage %r fenced: presented generation %d "
                    "superseded by fence %d"
                    % (name, caller_generation, fence))
        return info

    def _record_serve(self, handler_id, kind):
        """Audit-trail one serve from a lineage-stamped handler."""
        info = self._lineage.get(handler_id)
        if info is not None:
            self.serve_log.append((self.env.now, info[0], info[1], kind))

    def children_of(self, handler_id):
        """Registered remote children of a descriptor (active model)."""
        return list(self._children.get(handler_id, ()))

    def shadow_descriptors(self, task):
        """Handler ids whose shadow container is ``task``."""
        return [hid for hid, (_, shadow) in self._table.items()
                if shadow is task]

    def __len__(self):
        return len(self._table)

    # --- RPC handlers ------------------------------------------------------------
    def _handle_query(self, args):
        """Return the descriptor's address/size (and piggybacked DCT keys,
        §4.2) so the child can read it with one-sided RDMA."""
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled:
            # Server-side span: parents under the caller's rpc.call span
            # (inline on the fail-free path, via spawn inheritance on the
            # deadline path), so the trace shows queueing vs service time.
            span = tracer.start_span("daemon.query_descriptor",
                                     machine=self.machine.machine_id,
                                     handler=args["handler_id"])
        try:
            yield self.env.timeout(params.DESCRIPTOR_LOOKUP_LATENCY)
            self._fence_check(args["handler_id"], args.get("generation"))
            entry = self.lookup(args["handler_id"], args["auth_key"])
            if entry is None:
                raise RpcError("bad fork meta (handler %r)"
                               % (args["handler_id"],))
            descriptor, _ = entry
            self._record_serve(args["handler_id"], "descriptor")
            # Reply carries address+size+keys; the descriptor body itself
            # goes over one-sided RDMA, not in this reply (zero-copy fetch,
            # §4.1).
            reply = {"descriptor": descriptor, "nbytes": descriptor.nbytes}
            return reply, params.DESCRIPTOR_QUERY_REPLY_BYTES
        finally:
            if span is not None:
                span.end()

    def _handle_fallback(self, args):
        """Serve one page through the fallback daemon (§4.3).

        Reads the shadow container's physical page for the faulting VA,
        loading it from swap/secondary storage if the parent reclaimed it.
        """
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.start_span("daemon.fallback_page",
                                     machine=self.machine.machine_id,
                                     vpn=args["vpn"])
        try:
            self._fence_check(args["handler_id"], args.get("generation"))
            entry = self.lookup(args["handler_id"], args["auth_key"])
            if entry is None:
                raise RpcError("bad fork meta in fallback")
            descriptor, shadow_task = entry
            vpn = args["vpn"]
            if shadow_task.address_space.find_vma(vpn) is None:
                # No VMA of the shadow covers the page: there is nothing
                # to serve, and no storage load to charge.
                raise RpcError("vpn %d outside the shadow's VMAs" % vpn)
            yield self.env.timeout(params.FALLBACK_RPC_PAGE_LATENCY)
            # The descriptor may have been retired during a sleep: its
            # shadow has exited and freed its frames and swap slots, so
            # serve nothing from it.
            self._check_shadow_alive(shadow_task)
            self._record_serve(args["handler_id"], "page")
            pte = shadow_task.address_space.page_table.entry(vpn)
            if pte is not None and pte.present:
                if span is not None:
                    span.set(served_from="shadow")
                return pte.frame.content, params.PAGE_SIZE
            if pte is not None and pte.swap_slot is not None:
                yield self.env.timeout(params.FALLBACK_STORAGE_PAGE_LATENCY)
                self._check_shadow_alive(shadow_task)
                if span is not None:
                    span.set(served_from="swap")
                return (shadow_task.kernel.swap.get(pte.swap_slot),
                        params.PAGE_SIZE)
            if pte is not None and pte.remote:
                # Multi-hop shadow: the frame lives on an elder machine; the
                # child should retry against that elder directly.
                raise RpcError("page %d not owned by this hop" % vpn)
            # Never-loaded page (e.g. a file page the parent never touched):
            # load it from secondary storage.
            yield self.env.timeout(params.FALLBACK_STORAGE_PAGE_LATENCY)
            self._check_shadow_alive(shadow_task)
            if span is not None:
                span.set(served_from="storage")
            return ("m%d/storage/v%d" % (self.machine.machine_id, vpn),
                    params.PAGE_SIZE)
        finally:
            if span is not None:
                span.end()

    @staticmethod
    def _check_shadow_alive(shadow_task):
        """Reject a fallback whose shadow exited (its descriptor was
        retired) while the daemon slept: the same :class:`RpcError` a
        retired descriptor gets on arrival."""
        if shadow_task.state == "dead":
            raise RpcError("bad fork meta in fallback")

    def _handle_register(self, args):
        """Record a remote child (active control model bookkeeping)."""
        yield self.env.timeout(1.0 * params.US)
        entry = self.lookup(args["handler_id"], args["auth_key"])
        if entry is None:
            raise RpcError("bad fork meta in register_child")
        self._children.setdefault(args["handler_id"], []).append(
            (args["machine_id"], args["pid"]))
        return True, 32

    def _handle_renew(self, args):
        """Child-side lease renewal: extend a live descriptor's lease.

        Rejects (RpcError) when the descriptor is gone — retracted,
        already expired, or wiped by a crash — so the child knows its
        handle is dead rather than merely slow.
        """
        yield self.env.timeout(1.0 * params.US)
        self._fence_check(args["handler_id"], args.get("generation"))
        entry = self.lookup(args["handler_id"], args["auth_key"])
        if entry is None:
            raise RpcError("lease renewal rejected: descriptor %r is gone"
                           % (args["handler_id"],))
        expiry = self.touch_lease(args["handler_id"])
        self.counters.incr("leases_renewed")
        return expiry, 32

    def _handle_adopt(self, args):
        """Lineage election confirmation: re-stamp one of this daemon's
        descriptors at the freshly elected generation.

        Only ever moves the stamp *forward* — adopting backwards would
        let a slow election resurrect a fenced generation.  Rejects
        (RpcError) when the handler is gone or unstamped so the election
        driver drops the member instead of trusting it.
        """
        yield self.env.timeout(1.0 * params.US)
        handler_id = args["handler_id"]
        info = self._lineage.get(handler_id)
        entry = self._table.get(handler_id)
        if info is None or entry is None:
            raise RpcError("adopt_generation: handler %r is not a live "
                           "member of a lineage here" % (handler_id,))
        if args["generation"] < info[1]:
            raise RpcError("adopt_generation: refusing to lower handler %r "
                           "from generation %d to %d"
                           % (handler_id, info[1], args["generation"]))
        info[1] = args["generation"]
        entry[0].generation = args["generation"]
        self.counters.incr("generations_adopted")
        return True, 32

    def _handle_fence(self, args):
        """Fence delivery: learn that ``args['name']`` re-elected past
        ``args['generation']`` and stop serving anything older."""
        yield self.env.timeout(1.0 * params.US)
        floor = self.apply_fence(args["name"], args["generation"])
        return floor, 32
