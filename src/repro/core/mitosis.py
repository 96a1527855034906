"""The MITOSIS fork orchestrator: fork_prepare / fork_resume (§4.1).

``fork_prepare`` runs at the parent: fork a *shadow container* (a local COW
child that never executes), assign one DC target per VMA from the pooled
targets, and condense the execution state into a KB-scale descriptor
published under a (handler id, auth key) pair.

``fork_resume`` runs at the child machine: query the descriptor's address
over connection-less RPC, read the descriptor body with one-sided RDMA,
lean-containerize, and rebuild the task with every recoverable page marked
*remote* in its PTE — execution then restores memory read-on-access via
:class:`~repro.core.paging.RemotePager`.
"""

from .. import params

from ..faults.errors import LeaseExpired, ParentUnreachable
from ..kernel import KernelError, Pte
from ..rdma import ConnectionError_, RemoteAccessError, RpcError
from ..rdma.rpc import RpcTimeout
from ..sim import Interrupt
from .daemon import DescriptorService, NetworkDaemon
from .descriptor import (ContainerDescriptor, DerivedSnapshots, PteSnapshot,
                         SnapshotMap, VmaDescriptor)
from .paging import RemotePager


class ForkDepthExceeded(KernelError):
    """A fork would need an owner index beyond the 4 PTE bits (§4.4)."""


def _pte_snapshot(pte):
    """The descriptor entry for one real shadow PTE, or None when the
    page is unmapped."""
    if pte.present:
        return PteSnapshot(pte.frame.pfn, owner_hop=0)
    if pte.remote and pte.remote_pfn is not None:
        return PteSnapshot(pte.remote_pfn, owner_hop=pte.owner_index + 1)
    if pte.remote or pte.swap_slot is not None:
        # Mapped, but no directly readable PA: Table 2's RPC row.
        return PteSnapshot(None, owner_hop=0)
    return None


class Mitosis:
    """MITOSIS installed on one machine."""

    def __init__(self, env, deployment, runtime, enable_sharing=True,
                 transport="dct", access_control="passive",
                 prefetch_depth=0, batch_pages=None):
        if transport not in ("dct", "rc"):
            raise ValueError("transport must be 'dct' or 'rc'")
        if access_control not in ("passive", "active"):
            raise ValueError("access_control must be 'passive' or 'active'")
        self.env = env
        self.deployment = deployment
        self.runtime = runtime
        self.kernel = runtime.kernel
        self.machine = runtime.machine
        self.transport = transport
        self.access_control = access_control
        nic = self.machine.nic
        if nic is None:
            raise ValueError("MITOSIS requires an RNIC on %r" % (self.machine,))
        self.nic = nic
        self.net_daemon = NetworkDaemon(env, nic)
        self.service = DescriptorService(env, self.machine, deployment.rpc)
        self.pager = RemotePager(env, self.machine, self.net_daemon,
                                 deployment.rpc, deployment,
                                 enable_sharing=enable_sharing,
                                 prefetch_depth=prefetch_depth,
                                 batch_pages=batch_pages)
        self.kernel.remote_pager = self.pager
        if access_control == "passive":
            self.kernel.reclaim_hooks.append(self._on_reclaim)
        else:
            # Traditional active model (§3): synchronize with every remote
            # child before the kernel may touch the frame.
            self.kernel.async_reclaim_hooks.append(self._active_invalidate)
            deployment.rpc.endpoint(self.machine).register(
                "mitosis.invalidate_page", self._handle_invalidate)
        #: Control DC target used for one-sided descriptor fetches.
        self.control_target = nic._new_target(user_key=0xC0)
        # The network daemon fills the DC target pool at boot so steady-state
        # fork_prepare never pays target creation on the critical path (§4.3).
        nic.target_pool.prefill_at_boot()
        #: Per-call RPC deadline/retries; None (the default) keeps every
        #: control-plane call on the fail-free fast path.  Armed by
        #: :meth:`connect_faults`.
        self._rpc_deadline = None
        self._rpc_retries = None
        self._lease_proc = None
        #: Connection control plane (``repro.connplane``); ``None`` (the
        #: default) keeps every fork on the seed's per-fork query +
        #: connect path, byte-identical.
        self.connplane = None

    # --- fork_prepare -------------------------------------------------------------
    def fork_prepare(self, container):
        """Generate this container's descriptor.  Generator -> ForkMeta."""
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.start_span("mitosis.fork_prepare",
                                     machine=self.machine.machine_id)
        try:
            return (yield from self._prepare_body(container, span))
        finally:
            if span is not None:
                span.end()

    def _prepare_body(self, container, span):
        """The fork_prepare body.  Generator -> ForkMeta."""
        task = container.task
        if len(task.predecessors) + 1 > params.MAX_FORK_HOPS:
            raise ForkDepthExceeded(
                "container at depth %d cannot be forked again"
                % len(task.predecessors))

        # A local COW fork that never runs: keeps a stable frame set for
        # remote children while the parent continues executing.
        shadow = yield from self.kernel.fork_local(
            task, name=task.name + "-shadow")
        shadow.state = "shadow"

        resident_mb = task.address_space.resident_bytes / params.MB
        if span is not None:
            span.set(resident_mb=resident_mb,
                     vmas=len(shadow.address_space.vmas))
        yield self.env.timeout(params.FORK_PREPARE_BASE
                               + params.FORK_PREPARE_PER_MB * resident_mb)

        vma_descriptors = []
        for vma in shadow.address_space.vmas:
            target = yield from self.nic.target_pool.take()
            vma.dc_target = target
            vma_descriptors.append(VmaDescriptor(
                vma.start_vpn, vma.num_pages, vma.kind, vma.writable,
                dct_target_id=target.target_id, dct_key=target.key))

        # One entry per PTE the shadow built.  A resumed child's shadow
        # reads every other vpn from the child's snapshot map, one hop
        # further up, without building it (DerivedSnapshots).  Either
        # map carries its max owner hop, so neither scans its elder.
        table = shadow.address_space.page_table
        own = {vpn: _pte_snapshot(pte) for vpn, pte in table.materialized()}
        elder = table.snapshot
        if elder is None:
            pte_snapshots = SnapshotMap(
                (vpn, entry) for vpn, entry in own.items()
                if entry is not None)
        else:
            pte_snapshots = DerivedSnapshots(own, elder)
        hop = pte_snapshots.max_hop
        if hop > params.MAX_FORK_HOPS:  # a corrupt snapshot or PTE
            raise Pte.owner_index_error(hop)

        descriptor = ContainerDescriptor(
            machine=self.machine,
            container_image=container.image,
            registers=task.registers.clone(),
            namespaces=task.namespaces.clone(),
            cgroup_limits=task.cgroup.memory_limit,
            vma_descriptors=vma_descriptors,
            pte_snapshots=pte_snapshots,
            fd_specs=[fd.clone() for fd in task.fd_table.values()],
            predecessors=list(task.predecessors),
        )
        self.service.publish(descriptor, shadow)
        return descriptor.fork_meta(
            lease_expires_at=self.service.lease_expiry(descriptor.handler_id))

    # --- fork_resume ---------------------------------------------------------------
    @staticmethod
    def _phase_begin(tracer, name):
        """Open one fork_resume phase's span, or None when untraced."""
        return None if tracer is None else tracer.start_span("fork." + name)

    @staticmethod
    def _phase_end(span):
        """Close one phase's span, if traced."""
        if span is not None:
            span.end()

    def fork_resume(self, fork_meta):
        """Fork a child of ``fork_meta``'s container onto this machine.

        Generator returning the running :class:`Container`.

        With a tracer installed the resume is bracketed by a
        ``mitosis.fork_resume`` span with one child span per phase
        (``fork.descriptor_query`` / ``fork.descriptor_read`` /
        ``fork.containerize`` / ``fork.rebuild``).
        """
        tracer = self.env.tracer
        if tracer is not None and not tracer.enabled:
            tracer = None
        span = None
        if tracer is not None:
            span = tracer.start_span(
                "mitosis.fork_resume", machine=self.machine.machine_id,
                parent_machine=fork_meta.machine_id,
                handler=fork_meta.handler_id)
        try:
            return (yield from self._resume_phases(fork_meta, tracer))
        finally:
            if span is not None:
                span.end()

    def _resume_phases(self, fork_meta, tracer):
        """The fork_resume body, phase-bracketed.  Generator."""
        parent_machine = self.deployment.machine_by_id(fork_meta.machine_id)

        # Child-side lease handling: a stale handle must be renewed with
        # the parent before it may be resumed from (rFaaS-style expiry).
        if (fork_meta.lease_expires_at is not None
                and self.env.now > fork_meta.lease_expires_at):
            yield from self._renew_lease(fork_meta, parent_machine)

        # Advertisement fast path (repro.connplane): a fresh pushed advert
        # already holds the descriptor body + DCT keys, so both control
        # round trips below — the query RPC and the one-sided body read —
        # vanish, replaced by a local hash probe.
        advert = (self.connplane.lookup(self.machine, fork_meta)
                  if self.connplane is not None else None)
        if advert is not None:
            yield self.env.timeout(params.CONNPLANE_LOOKUP_LATENCY)
            if tracer is not None:
                tracer.annotate("connplane_advert_hit",
                                handler=fork_meta.handler_id)
            descriptor = advert.descriptor
        else:
            # Phase 1: locate the descriptor with connection-less RPC; the
            # reply piggybacks the DCT keys (§4.2), then read the descriptor
            # body zero-copy with one-sided RDMA (§4.1).
            pspan = self._phase_begin(tracer, "descriptor_query")
            query_args = {"handler_id": fork_meta.handler_id,
                          "auth_key": fork_meta.auth_key}
            if fork_meta.generation is not None:
                # Fencing token (repro.lineage): present the handle's
                # generation so a superseded seed rejects the query instead
                # of serving it.
                query_args["generation"] = fork_meta.generation
            try:
                reply = yield from self.deployment.rpc.call(
                    self.machine, parent_machine, "mitosis.query_descriptor",
                    query_args,
                    request_bytes=fork_meta.NBYTES,
                    deadline=self._rpc_deadline, retries=self._rpc_retries)
            except (RpcTimeout, ConnectionError_) as exc:
                raise ParentUnreachable(
                    "descriptor query for h%d on m%d failed: %s"
                    % (fork_meta.handler_id, parent_machine.machine_id, exc))
            finally:
                self._phase_end(pspan)
            descriptor = reply["descriptor"]
            parent_node = self.deployment.node(parent_machine)
            if parent_machine.machine_id != self.machine.machine_id:
                dcqp = self.net_daemon.dcqp()
                pspan = self._phase_begin(tracer, "descriptor_read")
                try:
                    yield from dcqp.read(
                        parent_machine, parent_node.control_target.target_id,
                        parent_node.control_target.key, reply["nbytes"])
                except (RemoteAccessError, ConnectionError_) as exc:
                    # The control target only vanishes when the parent dies
                    # or reboots mid-resume — unlike a per-VMA NAK this is
                    # not a routine revocation.
                    raise ParentUnreachable(
                        "descriptor body read from m%d failed: %s"
                        % (parent_machine.machine_id, exc))
                finally:
                    self._phase_end(pspan)

        # Phase 2: fast containerization with a generalized lean container.
        # Descriptor-driven state rebuild is sub-millisecond (§4.1) and is
        # charged inside the sandbox slot like every start path's CPU work.
        pspan = self._phase_begin(tracer, "containerize")
        try:
            container = yield from self.runtime.lean_start_empty(
                descriptor.container_image,
                extra_slot_time=params.DESCRIPTOR_RESTORE_BASE)
        finally:
            self._phase_end(pspan)
        task = container.task

        # Rebuild execution state from the descriptor.
        pspan = self._phase_begin(tracer, "rebuild")
        try:
            task.registers = descriptor.registers.clone()
            task.namespaces = descriptor.namespaces.clone()
            task.cgroup.assign(memory_limit=descriptor.cgroup_limits)
            for fd_spec in descriptor.fd_specs:
                task.fd_table[fd_spec.fd] = fd_spec.clone()
                if fd_spec.kind == "socket":
                    yield self.env.timeout(params.SOCKET_RESTORE_LATENCY)

            for vd in descriptor.vma_descriptors:
                vma = task.address_space.add_vma(
                    vd.num_pages, vd.kind, writable=vd.writable,
                    start_vpn=vd.start_vpn)
                vma.dct_target_id = vd.dct_target_id
                vma.dct_key = vd.dct_key
                vma.dct_owner_machine = parent_machine

            # Every snapshot page is remote until touched; the table
            # builds each PTE on first touch (priced in the lump above).
            task.address_space.page_table.attach_snapshot(
                descriptor.pte_snapshots)

            task.predecessors = (
                [(parent_machine, descriptor)] + list(descriptor.predecessors))

            if self.access_control == "active":
                # The parent must know its children to synchronize with them.
                yield from self.deployment.rpc.call(
                    self.machine, parent_machine, "mitosis.register_child",
                    {"handler_id": fork_meta.handler_id,
                     "auth_key": fork_meta.auth_key,
                     "machine_id": self.machine.machine_id,
                     "pid": task.pid}, request_bytes=48,
                    deadline=self._rpc_deadline, retries=self._rpc_retries)

            if self.transport == "rc":
                # Ablation (Fig. 15 b "base"): per-child RC connections to
                # every elder, created at start — paying handshake + the
                # 700/s cap.  With the connection plane armed the QPs come
                # from the warm pool instead: repeat forks to the same
                # elder hit a cached connection, co-located children share
                # one through refcounted leases, and misses batch-create.
                # One connection per elder *machine*: a lineage that visits
                # a machine twice reaches both hops over the same QP.
                rcqps = task._mitosis_rcqps = {}
                if self.connplane is not None:
                    task._connplane_leases = []
                for elder_machine, _ in task.predecessors:
                    if (elder_machine.machine_id == self.machine.machine_id
                            or elder_machine.machine_id in rcqps):
                        continue
                    if self.connplane is not None:
                        lease = yield from self.connplane.pool(
                            self.machine).acquire(elder_machine)
                        task._connplane_leases.append(lease)
                        rcqps[elder_machine.machine_id] = lease.qp
                    else:
                        rcqps[elder_machine.machine_id] = (
                            yield from self.nic.create_rc_qp(elder_machine))
        finally:
            self._phase_end(pspan)

        container.mark_running()
        return container

    def _renew_lease(self, fork_meta, parent_machine):
        """Renew a stale handle with the parent.  Generator.

        Raises :class:`LeaseExpired` when the parent authoritatively says
        the descriptor is gone (revoked — do not retry this handle), and
        :class:`ParentUnreachable` when the parent never answers (dead —
        the caller may re-elect a seed or degrade to C/R-from-DFS).
        """
        renew_args = {"handler_id": fork_meta.handler_id,
                      "auth_key": fork_meta.auth_key}
        if fork_meta.generation is not None:
            renew_args["generation"] = fork_meta.generation
        try:
            expiry = yield from self.deployment.rpc.call(
                self.machine, parent_machine, "mitosis.renew_lease",
                renew_args,
                request_bytes=fork_meta.NBYTES,
                deadline=self._rpc_deadline, retries=self._rpc_retries)
        except RpcError as exc:
            raise LeaseExpired(
                "lease on h%d not renewable: %s"
                % (fork_meta.handler_id, exc))
        except (RpcTimeout, ConnectionError_) as exc:
            raise ParentUnreachable(
                "lease renewal for h%d on m%d failed: %s"
                % (fork_meta.handler_id, parent_machine.machine_id, exc))
        fork_meta.lease_expires_at = expiry

    # --- Fault wiring ------------------------------------------------------------------
    def connect_faults(self, injector, leases=True, lease_daemon=False):
        """Arm this node against an installed :class:`FaultInjector`.

        Switches every control-plane RPC onto the deadline+retry path,
        optionally arms descriptor leases, and registers crash/restart
        hooks so a machine failure wipes (and a restart re-provisions)
        this node's RDMA-exposed state.
        """
        self._rpc_deadline = params.RPC_DEFAULT_DEADLINE
        self._rpc_retries = params.RPC_MAX_RETRIES
        self.pager._rpc_deadline = params.RPC_DEFAULT_DEADLINE
        self.pager._rpc_retries = params.RPC_MAX_RETRIES
        if leases:
            self.service.enable_leases()
        mid = self.machine.machine_id

        def on_crash(machine_id):
            if machine_id == mid:
                self._on_machine_crash()

        def on_restart(machine_id):
            if machine_id == mid:
                self._on_machine_restart()

        injector.on_crash(on_crash)
        injector.on_restart(on_restart)
        if lease_daemon:
            self.start_lease_daemon()

    def enable_resilience(self):
        """Arm this node's pager with breakers + hedged reads."""
        return self.pager.enable_resilience()

    def _on_machine_crash(self):
        """Fail-stop: all volatile MITOSIS state on this machine dies."""
        self.stop_lease_daemon()
        self.service.on_machine_crash()
        for target in list(self.nic.dc_targets.values()):
            self.nic.destroy_target(target)
        self.nic.target_pool._free.clear()
        if self.connplane is not None:
            # Local pool + advert cache die; warm QPs and adverts pointing
            # at this machine are invalidated cluster-wide.
            self.connplane.on_machine_crash(self.machine.machine_id)

    def _on_machine_restart(self):
        """Re-provision boot-time RDMA state after a restart."""
        self.control_target = self.nic._new_target(user_key=0xC0)
        self.nic.target_pool.prefill_at_boot()

    def start_lease_daemon(self):
        """Start the parent-side renewal loop: periodically re-stamp every
        live descriptor's lease and sweep the over-due ones."""
        if self._lease_proc is not None and self._lease_proc.is_alive:
            return self._lease_proc

        def loop():
            try:
                while True:
                    yield self.env.timeout(params.LEASE_RENEW_PERIOD)
                    for hid in list(self.service._table):
                        _, shadow = self.service._table[hid]
                        if shadow.state != "dead":
                            self.service.touch_lease(hid)
                    self.service.sweep_leases()
            except Interrupt:
                pass

        self._lease_proc = self.env.process(loop())
        return self._lease_proc

    def stop_lease_daemon(self):
        """Stop the renewal loop (no-op if it never started)."""
        if self._lease_proc is not None and self._lease_proc.is_alive:
            self._lease_proc.interrupt("stop")
        self._lease_proc = None

    # --- Passive access control (parent side) ----------------------------------------
    def _on_reclaim(self, task, vma, vpn, pte):
        """Reclaim hook: destroy the VMA's DC target *before* the kernel
        frees the frame, so in-flight and future RDMA reads are NAKed and
        children passively fall back to RPC (§4.3)."""
        if vma is not None and vma.dc_target is not None:
            if vma.dc_target.active:
                self.nic.destroy_target(vma.dc_target)

    # --- Active access control (the §3 alternative, for comparison) -----------------
    def _active_invalidate(self, task, vma, vpn, pte):
        """Synchronously invalidate the faulting page at *every* remote
        child before reclaim proceeds — one RPC round per child, which is
        what makes the active model unusable at fork fan-outs of
        thousands (§3).  Generator."""
        for handler_id in self.service.shadow_descriptors(task):
            for machine_id, pid in self.service.children_of(handler_id):
                child_machine = self.deployment.machine_by_id(machine_id)
                yield from self.deployment.rpc.call(
                    self.machine, child_machine, "mitosis.invalidate_page",
                    {"pid": pid, "vpn": vpn}, request_bytes=32,
                    deadline=self._rpc_deadline, retries=self._rpc_retries)

    def _handle_invalidate(self, args):
        """Child-side invalidation: drop the direct PA so the next access
        takes the RPC path (Table 2's 'no PA in PTE' row)."""
        yield self.env.timeout(2.0 * params.US)  # PTE update + TLB shootdown
        task = self.kernel.tasks.get(args["pid"])
        if task is not None:
            pte = task.address_space.page_table.entry(args["vpn"])
            if pte is not None and pte.remote:
                pte.drop_remote_pa()
        return True, 32

    # --- Housekeeping -------------------------------------------------------------------
    def retire_descriptor(self, fork_meta):
        """Drop a descriptor and its shadow container (GC after DAG runs, §5)."""
        entry = self.service.lookup(fork_meta.handler_id, fork_meta.auth_key)
        if entry is None:
            return False
        descriptor, shadow = entry
        self.service.retract(descriptor)
        for vma in shadow.address_space.vmas:
            if vma.dc_target is not None and vma.dc_target.active:
                self.nic.destroy_target(vma.dc_target)
        shadow.exit()
        return True


class MitosisDeployment:
    """MITOSIS deployed on every RDMA machine of a cluster (Fig. 4)."""

    def __init__(self, env, cluster, fabric, rpc, runtimes,
                 enable_sharing=True, transport="dct",
                 access_control="passive", prefetch_depth=0,
                 batch_pages=None):
        self.env = env
        self.cluster = cluster
        self.fabric = fabric
        self.rpc = rpc
        self._nodes = {}
        for runtime in runtimes:
            node = Mitosis(env, self, runtime,
                           enable_sharing=enable_sharing, transport=transport,
                           access_control=access_control,
                           prefetch_depth=prefetch_depth,
                           batch_pages=batch_pages)
            self._nodes[runtime.machine.machine_id] = node

    def node(self, machine):
        """The Mitosis node installed on ``machine``."""
        try:
            return self._nodes[machine.machine_id]
        except KeyError:
            raise ValueError("MITOSIS not deployed on %r" % (machine,))

    def descriptor_service(self, machine):
        """The descriptor service on ``machine``."""
        return self.node(machine).service

    def machine_by_id(self, machine_id):
        """Resolve a machine id to its Machine."""
        return self.cluster.machine(machine_id)

    def nodes(self):
        """All deployed Mitosis nodes."""
        return list(self._nodes.values())

    def connect_faults(self, injector, leases=True, lease_daemons=False):
        """Arm every deployed node against ``injector`` (see
        :meth:`Mitosis.connect_faults`)."""
        for node in self._nodes.values():
            node.connect_faults(injector, leases=leases,
                                lease_daemon=lease_daemons)

    def enable_resilience(self):
        """Arm every deployed node's pager (see
        :meth:`Mitosis.enable_resilience`)."""
        for node in self._nodes.values():
            node.enable_resilience()

    def stop_fault_daemons(self):
        """Stop every node's lease-renewal daemon so the event loop can
        drain once an experiment's arrivals are done."""
        for node in self._nodes.values():
            node.stop_lease_daemon()
