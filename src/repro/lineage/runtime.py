"""The cluster-side lineage runtime: replication, promotion, rescue.

One :class:`LineageRuntime` lives on the :class:`~repro.fn.FnCluster`
(armed by ``enable_lineage``) and owns:

* **Replication** — at provision time, K replica hosts ``fork_resume``
  the primary seed's descriptor and a copier streams every remote page
  over the existing RDMA paging paths (shared cache, doorbell batching,
  RPC fallback — all of it), bumping the replica's registry *copy epoch*
  once per fully-streamed VMA.  A fully-copied replica then publishes
  its **own** descriptor (all pages owner-hop 0, so its children never
  chain back through the dead primary).
* **Promotion** — when the primary is lost, the freshest alive replica
  is elected at a bumped generation.  Election is split-brain-safe: the
  winner and every surviving replica must *confirm adoption* of the new
  generation over RPC (unconfirmed members are dropped), and only then
  is the fence broadcast to every machine that ever hosted the lineage.
* **Orphan rescue** — :meth:`failover` rewrites a child's
  ``task.predecessors`` slot to the best surviving member, so in-flight
  and future page faults against a dead or fenced seed transparently
  re-route before the policy layer ever degrades to CRIU-from-DFS.
* **Fence delivery** — bounded-retry drivers push the fence to slow or
  flapped hosts; a revived stale primary is re-fenced the moment the
  health monitor re-admits it.

The runtime mutates authoritative state only through the journaled
:class:`~repro.lineage.registry.LineageRegistry`; everything else here
(container handles, procs, gates) is reconstructible runtime state.
"""

from .. import params
from ..faults.errors import FaultError
from ..kernel import TaskExited
from ..metrics import CounterSet
from ..rdma import ConnectionError_, RpcError
from ..rdma.rpc import RpcTimeout
from ..resilience import SuspicionGate
from ..sim import Interrupt
from .registry import LineageRegistry

#: What replication/promotion steps may raise when the cluster is faulty
#: (mirrors the policy layer's ``_START_FAULTS``), plus a replica that a
#: crash wiped while its copy stream was mid-fault.
_RECOVERABLE = (FaultError, RpcError, RpcTimeout, ConnectionError_,
                TaskExited)


class _Member:
    """One live host of a lineage: the primary or a replica."""

    __slots__ = ("invoker", "container", "meta", "descriptor", "node")

    def __init__(self, invoker, container, meta=None, descriptor=None,
                 node=None):
        self.invoker = invoker
        self.container = container
        #: ForkMeta of this member's own published descriptor (None while
        #: a replica is still copying — it cannot serve children yet).
        self.meta = meta
        self.descriptor = descriptor
        self.node = node


class LineageRuntime:
    """Replication, promotion, fencing, and orphan rescue for seed
    lineages (see the module docstring for the full protocol)."""

    def __init__(self, fn_cluster, replicas):
        self.fn = fn_cluster
        self.env = fn_cluster.env
        #: Replicas to maintain per lineage (K in REPRO_SEED_REPLICAS=K).
        self.replicas = replicas
        self.registry = LineageRegistry()
        self.wal = self.registry.wal
        self.counters = CounterSet()
        #: name -> {invoker index: _Member} (runtime handles, not journaled).
        self._members = {}
        #: name -> in-flight promotion gate (single-flight elections).
        self._promoting = {}
        #: (machine_id, name) -> generation still owed to that machine.
        self._pending_fences = {}
        #: (machine_id, name) -> live fence-delivery process.
        self._fence_procs = {}
        #: Episode dedup for suspicion-triggered sweeps.
        self._gate = SuspicionGate()
        #: Background procs (sweeps, re-replications) for stop().
        self._procs = set()
        self._stopped = False

    # --- Registration & replication ------------------------------------------
    def register_primary(self, name, invoker, container, meta, descriptor,
                         node):
        """Record (or re-record, at a bumped generation) the primary seed.

        Stamps the descriptor with its lineage identity so every daemon
        and pager can recognize it, and — past the first generation —
        queues fences toward every historical host that is not part of
        the new member set (a re-placed lineage must still shut out the
        old one's survivors).
        """
        for idx in list(self.registry.replicas(name)):
            # A re-placed lineage starts from a clean member set; stale
            # replica entries (and their leases) must not survive it.
            self.registry.drop_replica(self.env.now, name, idx)
        generation = self.registry.place_primary(
            self.env.now, name, invoker.index, descriptor.handler_id,
            invoker.machine.machine_id, len(descriptor.vma_descriptors))
        node.service.assign_lineage(descriptor.handler_id, name, generation)
        meta.generation = generation
        self._members[name] = {
            invoker.index: _Member(invoker, container, meta=meta,
                                   descriptor=descriptor, node=node)}
        if generation > 1:
            self._broadcast_fence(name, generation)
        return generation

    def replicate(self, name):
        """Stream the lineage to up to K replica hosts.  Generator.

        Each replica is grown sequentially: fork_resume from the primary,
        copy every remote page VMA-by-VMA (bumping the journaled copy
        epoch per completed VMA), then publish the replica's own
        descriptor and grant it a lease at the current generation.  A
        replica that fails mid-copy is dropped and simply reduces the
        replica count — the lineage survives with fewer spares.
        """
        members = self._members.get(name)
        if not members:
            return 0
        placement = self.registry.placement(name)
        if placement is None:
            return 0
        primary = members.get(placement["invoker"])
        if primary is None:
            return 0
        grown = 0
        for _ in range(self.replicas):
            spares = sum(1 for idx in members
                         if idx != placement["invoker"])
            if spares >= self.replicas:
                break  # already at K (refills are idempotent)
            targets = [i for i in self.fn.invokers
                       if i.alive and i.index not in members]
            if not targets:
                break
            if self.fn.fabric.net is not None:
                # ToR-domain spread (fabric armed): a replica in a rack
                # the lineage does not cover yet survives a ToR cut and
                # gives cross-rack children a rack-local hedge target.
                covered = {members[idx].invoker.machine.rack
                           for idx in members}
                target = min(targets,
                             key=lambda i: (i.machine.rack in covered,
                                            i.machine.memory.used, i.index))
            else:
                target = min(targets,
                             key=lambda i: (i.machine.memory.used, i.index))
            if (yield from self._grow_replica(name, target, primary.meta)):
                grown += 1
        return grown

    def _grow_replica(self, name, invoker, primary_meta):
        """Create + fully copy one replica on ``invoker``.  Generator."""
        members = self._members[name]
        node = self.fn.deployment.node(invoker.machine)
        self.registry.add_replica(self.env.now, name, invoker.index,
                                  invoker.machine.machine_id)
        # Claim the slot before the first yield: concurrent replicate
        # drivers must not both pick this invoker and double-bump its
        # copy epochs.
        member = _Member(invoker, None, node=node)
        members[invoker.index] = member
        try:
            container = yield from node.fork_resume(primary_meta)
            invoker.track(container)
            member.container = container
            yield from self._copy_vmas(member, name, 0)
            yield from self._publish_replica(member, name)
        except _RECOVERABLE:
            self.counters.incr("replica_copy_failures")
            self.registry.drop_replica(self.env.now, name, invoker.index)
            members.pop(invoker.index, None)
            if (member.container is not None
                    and member.container in invoker.live_containers
                    and member.container.task.state != "dead"):
                invoker.destroy(member.container)
            return False
        self.counters.incr("replicas_grown")
        return True

    def _copy_vmas(self, member, name, start_index):
        """The copy stream: touch every still-remote page of each VMA
        from ``start_index`` on, through the ordinary paging path (RDMA
        read, shared cache, batching, fallback — whatever applies), then
        journal the completed VMA as one copy-epoch bump.  Generator.

        A fully copied replica never reads from its elder again, so its
        pooled-QP leases toward the elder are released at the end — a
        replica outlives its elder's crash, which drops the pooled
        entries those leases count against."""
        task = member.container.task
        kernel = member.node.kernel
        vmas = list(task.address_space.vmas)
        table = task.address_space.page_table
        for vma in vmas[start_index:]:
            for vpn in range(vma.start_vpn, vma.end_vpn):
                pte = table.entry(vpn)
                if pte is None or pte.present or not pte.remote:
                    continue
                yield from kernel.touch(task, vpn)
                self.counters.incr("pages_replicated")
            self.registry.bump_copy_epoch(self.env.now, name,
                                          member.invoker.index)
        member.invoker.release_leases(member.container)

    def _publish_replica(self, member, name):
        """Publish a fully-copied replica's own descriptor.  Generator."""
        meta = yield from member.node.fork_prepare(member.container)
        entry = member.node.service.lookup(meta.handler_id, meta.auth_key)
        if entry is None:
            raise RpcError("replica descriptor for %r vanished before "
                           "registration" % (name,))
        descriptor = entry[0]
        generation = self.registry.replica_ready(
            self.env.now, name, member.invoker.index, descriptor.handler_id)
        member.node.service.assign_lineage(descriptor.handler_id, name,
                                           generation)
        meta.generation = generation
        member.meta = meta
        member.descriptor = descriptor

    def spawn_replicate(self, name):
        """Fire-and-forget :meth:`replicate` (post-re-election refill)."""
        def driver():
            try:
                yield from self.replicate(name)
            except Interrupt:
                return
            except _RECOVERABLE:
                self.counters.incr("replicate_driver_failures")

        proc = self.env.process(driver())
        self._procs.add(proc)
        return proc

    # --- Promotion -----------------------------------------------------------
    def current_primary(self, name):
        """The primary's member record if it looks healthy, else None.

        "Healthy" is stricter than "alive": a gray primary (machine up
        but unreachable — open suspicion episode, or evicted from
        admission) must not win the promote fast path, or children would
        bounce back to the very seed they just failed against.
        """
        members = self._members.get(name)
        placement = self.registry.placement(name)
        if not members or placement is None:
            return None
        primary = members.get(placement["invoker"])
        if (primary is not None and primary.invoker.alive
                and primary.invoker.admitting
                and not self._gate.is_high(primary.invoker.index)
                and primary.meta is not None
                and primary.node.service.lookup(
                    primary.meta.handler_id,
                    primary.meta.auth_key) is not None):
            return primary
        return None

    def promote(self, name, suspect_handler=None):
        """Resolve the lineage to a servable primary.  Generator returning
        ``(invoker, container, meta)`` or None when no member survives.

        Fast path: the current primary is alive and still publishes its
        descriptor (the caller's failure was transient, or an earlier
        election already fixed things).  Otherwise a single-flight
        election promotes the freshest alive replica.

        ``suspect_handler`` is the handler id the caller just failed
        against: a "healthy"-looking primary still serving that handler
        does not win the fast path (gray failures — a partitioned seed
        looks fine to every local check), forcing a real election.
        """
        if name not in self._members:
            return None
        while True:
            primary = self.current_primary(name)
            if primary is not None and (
                    suspect_handler is None
                    or primary.meta.handler_id != suspect_handler):
                return (primary.invoker, primary.container, primary.meta)
            pending = self._promoting.get(name)
            if pending is None:
                break
            yield pending
        gate = self.env.event()
        self._promoting[name] = gate
        try:
            return (yield from self._elect(name))
        finally:
            self._promoting.pop(name, None)
            gate.succeed()

    def _elect(self, name):
        """One election round: pick, adopt, fence.  Generator."""
        members = self._members.get(name, {})
        placement = self.registry.placement(name)
        old_primary = placement["invoker"] if placement is not None else None
        replicas = self.registry.replicas(name)
        while True:
            candidates = [
                m for idx, m in members.items()
                if idx != old_primary and m.invoker.alive
                and m.meta is not None]
            if not candidates:
                return None
            # Freshest replica first: highest copy epoch, lowest index.
            winner = max(candidates, key=lambda m: (
                replicas.get(m.invoker.index, {}).get("copy_epoch", 0),
                -m.invoker.index))
            generation = self.registry.elect(
                self.env.now, name, winner.invoker.index,
                winner.meta.handler_id,
                len(winner.descriptor.vma_descriptors))
            if not (yield from self._adopt(winner, name, generation)):
                # The winner never confirmed the new generation: it may
                # not be trusted to serve at it — drop it and re-elect.
                self.registry.drop_replica(self.env.now, name,
                                           winner.invoker.index)
                members.pop(winner.invoker.index, None)
                continue
            winner.meta.generation = generation
            for idx, member in list(members.items()):
                if idx in (winner.invoker.index, old_primary):
                    continue
                if member.meta is None:
                    continue  # still copying; not a lease holder
                if (yield from self._adopt(member, name, generation)):
                    member.meta.generation = generation
                    self.registry.grant_lease(
                        self.env.now, name, idx, member.meta.handler_id,
                        generation)
                else:
                    self.registry.drop_replica(self.env.now, name, idx)
                    members.pop(idx, None)
            if old_primary is not None:
                members.pop(old_primary, None)
            self.counters.incr("promotions")
            self._broadcast_fence(name, generation)
            return (winner.invoker, winner.container, winner.meta)

    def _adopt(self, member, name, generation):
        """Ask one member's daemon to adopt ``generation``.  Generator
        returning True only on an explicit confirmation."""
        try:
            yield from self.fn.rpc.call(
                self.fn.lb_machine, member.invoker.machine,
                "mitosis.adopt_generation",
                {"handler_id": member.meta.handler_id, "name": name,
                 "generation": generation},
                request_bytes=32, deadline=params.RPC_DEFAULT_DEADLINE,
                retries=params.RPC_MAX_RETRIES)
        except _RECOVERABLE:
            self.counters.incr("adoptions_failed")
            return False
        return True

    # --- Fencing -------------------------------------------------------------
    def _broadcast_fence(self, name, generation):
        """Queue fence delivery to every historical host of the lineage
        that is not a confirmed member of the current generation."""
        self.registry.fence(self.env.now, name, generation)
        members = self._members.get(name, {})
        confirmed = {m.invoker.machine.machine_id for m in members.values()}
        for machine_id in self.registry.hosts(name):
            if machine_id in confirmed:
                continue
            key = (machine_id, name)
            queued = self._pending_fences.get(key)
            if queued is not None and queued > generation:
                continue
            self._pending_fences[key] = generation
            self._spawn_fence(machine_id, name)

    def _spawn_fence(self, machine_id, name):
        key = (machine_id, name)
        if key in self._fence_procs:
            return
        proc = self.env.process(self._fence_driver(machine_id, name))
        self._fence_procs[key] = proc
        self._procs.add(proc)

    def _fence_driver(self, machine_id, name):
        """Push the pending fence to one machine, bounded retries."""
        key = (machine_id, name)
        try:
            machine = self.fn.deployment.machine_by_id(machine_id)
            for _ in range(params.LINEAGE_FENCE_MAX_TRIES):
                generation = self._pending_fences.get(key)
                if generation is None:
                    return
                try:
                    yield from self.fn.rpc.call(
                        self.fn.lb_machine, machine,
                        "mitosis.fence_lineage",
                        {"name": name, "generation": generation},
                        request_bytes=32,
                        deadline=params.RPC_DEFAULT_DEADLINE, retries=0)
                except _RECOVERABLE:
                    self.counters.incr("fence_retries")
                    yield self.env.timeout(
                        params.LINEAGE_FENCE_RETRY_PERIOD)
                    continue
                self.counters.incr("fences_delivered")
                queued = self._pending_fences.get(key)
                if queued is not None and queued > generation:
                    continue  # a newer fence arrived while we delivered
                self._pending_fences.pop(key, None)
                return
            # Out of tries: the fence stays pending; re-admission of the
            # host re-arms a fresh driver (see on_invoker_readmitted).
            self.counters.incr("fences_parked")
        except Interrupt:
            return
        finally:
            self._fence_procs.pop(key, None)

    # --- Orphan rescue -------------------------------------------------------
    def failover(self, task, pte, vpn):
        """Re-route one child's faulting owner slot to a surviving member.

        Plain synchronous method (no events) called from the pager's
        rescue loop.  Rewrites ``task.predecessors[pte.owner_index]`` —
        which every future fault through that owner also follows — and
        returns True; False means nothing better exists (same member, no
        lineage, nobody alive) and the caller must let the error stand.
        """
        try:
            _owner_machine, owner_desc = task.predecessors[pte.owner_index]
        except (LookupError, AttributeError):
            return False
        name = getattr(owner_desc, "lineage", None)
        if name is None:
            return False
        members = self._members.get(name)
        if not members:
            return False
        candidates = []
        primary = self.current_primary(name)
        if primary is not None:
            candidates.append(primary)
        replicas = self.registry.replicas(name)
        spares = [members[idx] for idx in replicas
                  if idx in members and members[idx].invoker.alive
                  and members[idx].descriptor is not None]
        spares.sort(key=lambda m: (
            -replicas[m.invoker.index]["copy_epoch"], m.invoker.index))
        candidates.extend(spares)
        for member in candidates:
            descriptor = member.descriptor
            if descriptor is None or descriptor.uid == owner_desc.uid:
                continue
            if descriptor.find_vma(vpn) is None:
                continue
            snap = descriptor.pte_snapshots.get(vpn)
            if snap is not None and snap.owner_hop > 0:
                # That member would only bounce the fault further up the
                # (dead) lineage — not a rescue.
                continue
            if member.node.service.lookup(descriptor.handler_id,
                                          descriptor.auth_key) is None:
                continue
            task.predecessors[pte.owner_index] = (member.invoker.machine,
                                                  descriptor)
            self.counters.incr("failovers")
            return True
        return False

    def rack_local_member(self, name, rack, vpn):
        """A live member in ``rack`` able to serve ``vpn`` right now.

        The pager's topology-aware hedging asks for this when the
        primary owner sits across the spine: the hedge leg then reads a
        rack-local replica instead of doubling down on the congested
        cross-rack path.  Returns ``(machine, descriptor)`` or None.
        Candidate filtering mirrors :meth:`failover`: a published
        descriptor covering the page, no upward owner hop, and a
        directory entry that still resolves.
        """
        if name is None:
            return None
        members = self._members.get(name)
        if not members:
            return None
        for idx in sorted(members):
            member = members[idx]
            if not member.invoker.alive:
                continue
            if member.invoker.machine.rack != rack:
                continue
            descriptor = member.descriptor
            if descriptor is None:
                continue
            if descriptor.find_vma(vpn) is None:
                continue
            snap = descriptor.pte_snapshots.get(vpn)
            if snap is not None and snap.owner_hop > 0:
                continue
            if member.node.service.lookup(descriptor.handler_id,
                                          descriptor.auth_key) is None:
                continue
            return member.invoker.machine, descriptor
        return None

    # --- Health-monitor hooks ------------------------------------------------
    def on_invoker_suspect(self, invoker):
        """A host went suspect: start the copy-out sweep once per episode,
        racing in-flight orphan rescues for still-primary-only pages."""
        if self._stopped or not self._gate.rise(invoker.index):
            return
        for name in self.registry.names():
            placement = self.registry.placement(name)
            if placement is None or placement["invoker"] != invoker.index:
                continue
            proc = self.env.process(self._sweep(name))
            self._procs.add(proc)

    def on_invoker_readmitted(self, invoker):
        """A host came back: re-arm any fences still owed to it (a revived
        stale primary must learn it was superseded), and close the
        suspicion episode."""
        self._gate.clear(invoker.index)
        if self._stopped:
            return
        machine_id = invoker.machine.machine_id
        for (target_id, name) in list(self._pending_fences):
            if target_id == machine_id:
                self._spawn_fence(target_id, name)

    def _sweep(self, name):
        """Copy-out-on-suspicion: finish every partially-copied replica of
        ``name`` while the primary may still answer.  Generator."""
        try:
            members = self._members.get(name, {})
            swept = False
            for idx, member in list(members.items()):
                if (member.meta is not None or member.container is None
                        or not member.invoker.alive):
                    continue
                entry = self.registry.replicas(name).get(idx)
                if entry is None:
                    continue
                try:
                    yield from self._copy_vmas(member, name,
                                               entry["copy_epoch"])
                    yield from self._publish_replica(member, name)
                    swept = True
                except _RECOVERABLE:
                    self.counters.incr("sweep_failures")
            if swept:
                self.counters.incr("sweeps_completed")
        except Interrupt:
            return

    # --- Lifecycle -----------------------------------------------------------
    def stop(self):
        """Interrupt every background process so the event loop drains."""
        self._stopped = True
        for proc in list(self._procs):
            if proc.is_alive and proc is not self.env.active_process:
                proc.interrupt("lineage runtime stopped")
        self._procs.clear()
        self._fence_procs.clear()

    def members(self, name):
        """Live member map (read-only view for tests/sanitizers)."""
        return dict(self._members.get(name, {}))
