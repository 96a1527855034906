"""Container descriptors: the condensed remote-fork metadata (§4.1).

A descriptor is the KB-scale stand-in for C/R's MB-scale image files.  It
captures exactly the four state groups the paper lists: (1) isolation
metadata (limits + namespace flags), (2) CPU registers, (3) the VMA list
and a page-table snapshot whose entries point at the *parent's physical
frames*, and (4) file descriptors.  Memory pages are deliberately absent —
children pull them over RDMA on demand.
"""

from itertools import chain, count
from operator import attrgetter

from .. import params


class ForkMeta:
    """The few-bytes handle a platform passes around to fork a container.

    (parent RDMA address, handler id, authentication key) — §4.1.  When
    the deployment runs with leases armed, the handle also carries the
    descriptor's lease expiry (rFaaS-style): a child holding a stale
    handle must renew with the parent before resuming from it.  With the
    lineage layer armed it additionally carries the descriptor's fencing
    **generation**, which every descriptor RPC presents so a superseded
    holder is rejected (``repro.lineage``).  Both stamps are advisory
    state, not identity — they are excluded from eq/hash.
    """

    __slots__ = ("machine_id", "handler_id", "auth_key", "lease_expires_at",
                 "generation")

    NBYTES = 24

    def __init__(self, machine_id, handler_id, auth_key,
                 lease_expires_at=None, generation=None):
        self.machine_id = machine_id
        self.handler_id = handler_id
        self.auth_key = auth_key
        self.lease_expires_at = lease_expires_at
        self.generation = generation

    def __repr__(self):
        return "<ForkMeta m%d h%d>" % (self.machine_id, self.handler_id)

    def __eq__(self, other):
        return (isinstance(other, ForkMeta)
                and other.machine_id == self.machine_id
                and other.handler_id == self.handler_id
                and other.auth_key == self.auth_key)

    def __hash__(self):
        return hash((self.machine_id, self.handler_id, self.auth_key))


class VmaDescriptor:
    """One VMA's serialized form, including its DC-target credentials.

    The (target id, DCT key) pair is the *connection-based* access grant
    for this VMA's physical pages (§4.3): children present the key on every
    RDMA read; the parent revokes the whole VMA by destroying the target.
    """

    __slots__ = ("start_vpn", "num_pages", "kind", "writable",
                 "dct_target_id", "dct_key")

    def __init__(self, start_vpn, num_pages, kind, writable,
                 dct_target_id, dct_key):
        self.start_vpn = start_vpn
        self.num_pages = num_pages
        self.kind = kind
        self.writable = writable
        self.dct_target_id = dct_target_id
        self.dct_key = dct_key


class PteSnapshot:
    """One page-table entry in the descriptor.

    ``owner_hop`` says where the frame lives: 0 = on the descriptor's own
    machine (its shadow container), k > 0 = on the k-th elder up the fork
    lineage (multi-hop, §4.4 — encoded in 4 redundant PTE bits, so at most
    :data:`repro.params.MAX_FORK_HOPS`).
    """

    __slots__ = ("remote_pfn", "owner_hop")

    def __init__(self, remote_pfn, owner_hop=0):
        self.remote_pfn = remote_pfn
        self.owner_hop = owner_hop


_owner_hop = attrgetter("owner_hop")
_MISSING = object()


class SnapshotMap(dict):
    """The read-only ``vpn -> PteSnapshot`` map of a descriptor prepared
    from a container that was never resumed: a plain dict that carries
    :attr:`max_hop`, the largest owner hop it lists, counted once, so
    deriving from it scans nothing (:class:`DerivedSnapshots`).

    Published maps are never written (reprolint's
    ``snapshot-read-only``).  An entry added anyway, through any of
    dict's writes, still counts toward the carried max, so
    ``fork_prepare`` still rejects a hop beyond the PTE bits; an entry
    whose ``owner_hop`` is rewritten in place is not seen."""

    __slots__ = ("max_hop",)

    def __init__(self, entries):
        super().__init__(entries)
        self.max_hop = max(map(_owner_hop, self.values()), default=0)

    def _count(self, snap):
        if snap.owner_hop > self.max_hop:
            self.max_hop = snap.owner_hop

    def __setitem__(self, vpn, snap):
        super().__setitem__(vpn, snap)
        self._count(snap)

    def setdefault(self, vpn, snap):
        snap = super().setdefault(vpn, snap)
        self._count(snap)
        return snap

    def update(self, *args, **kwargs):
        # dict's C writes never call an overridden __setitem__.
        super().update(*args, **kwargs)
        self.max_hop = max(map(_owner_hop, self.values()), default=0)

    def __ior__(self, other):
        self.update(other)
        return self


class DerivedSnapshots:
    """The read-only PTE snapshot map of a descriptor prepared from a
    resumed child (multi-hop, §4.4).

    ``own`` maps each vpn whose PTE the shadow built to that PTE's entry,
    or to None where the PTE maps nothing.  Every other vpn of ``elder``
    (the child's own snapshot map) reads as the elder's entry one hop
    further up: ``(remote_pfn, owner_hop + 1)``, or ``(None, 0)`` for an
    entry with no PA.  So preparing the descriptor costs O(own), and an
    untouched page costs nothing until it is looked up.

    Derived maps stack, one layer per hop, over the plain map of the
    first descriptor in the lineage.  A lookup walks the layers in one
    call, summing the hop offset: :meth:`locate` answers the faulting
    page table with ``(remote_pfn, owner_hop)`` and builds nothing,
    :meth:`get` builds the entry.
    :meth:`items` lists the eager copy's order: the elder's order with
    own entries in place, then own vpns the elder lacks, in insertion
    order.  ``len`` is counted once, at construction.

    The map aliases every elder below it, so neither it nor any layer is
    ever mutated (the ``snapshot-read-only`` reprolint rule).
    """

    __slots__ = ("_layers", "_root", "_added", "_len", "max_hop")

    def __init__(self, own, elder):
        if type(elder) is DerivedSnapshots:
            self._layers = (own,) + elder._layers
            self._root = elder._root
            added = dict(elder._added)
        else:
            self._layers = (own,)
            self._root = elder
            added = {}
        size = len(elder)
        own_hop = 0
        for vpn, snap in own.items():
            if vpn in elder:
                if snap is None:
                    size -= 1
            elif snap is not None:
                size += 1
                # A vpn dropped one hop up and mapped again moves to the end.
                added.pop(vpn, None)
                added[vpn] = None
            if snap is not None and snap.owner_hop > own_hop:
                own_hop = snap.owner_hop
        #: Every vpn a layer added over its elder, in the order it was
        #: (last) added; some may have been dropped since.
        self._added = added
        self._len = size
        #: Upper bound on every owner hop the map lists; fork_prepare
        #: rejects the map when it exceeds MAX_FORK_HOPS.
        self.max_hop = max(own_hop, elder.max_hop + 1)

    def locate(self, vpn):
        """``(remote_pfn, owner_hop)`` of the entry for ``vpn``, or None
        where there is none: :meth:`get`'s fields, with no entry built."""
        hop = 0
        for layer in self._layers:
            if vpn in layer:
                snap = layer[vpn]
                break
            hop += 1
        else:
            snap = self._root.get(vpn)
        if snap is None:
            return None
        if hop == 0:
            return snap.remote_pfn, snap.owner_hop
        if snap.remote_pfn is None:
            return None, 0
        return snap.remote_pfn, snap.owner_hop + hop

    def get(self, vpn):
        """The entry for ``vpn``, or None."""
        found = self.locate(vpn)
        return None if found is None else PteSnapshot(*found)

    def __contains__(self, vpn):
        for layer in self._layers:
            snap = layer.get(vpn, _MISSING)
            if snap is not _MISSING:
                return snap is not None
        return vpn in self._root

    def __len__(self):
        return self._len

    def items(self):
        """Iterate ``(vpn, PteSnapshot)`` pairs in the eager copy's order."""
        get = self.get
        added = self._added
        for vpn in chain((vpn for vpn in self._root if vpn not in added),
                         added):
            snap = get(vpn)
            if snap is not None:
                yield vpn, snap


class ContainerDescriptor:
    """The full condensed descriptor stored at the parent machine."""

    _ids = count(1)
    _keys = count(0xA000)

    def __init__(self, machine, container_image, registers, namespaces,
                 cgroup_limits, vma_descriptors, pte_snapshots, fd_specs,
                 predecessors):
        self.uid = next(ContainerDescriptor._ids)
        self.machine = machine
        self.container_image = container_image
        self.registers = registers
        self.namespaces = namespaces
        self.cgroup_limits = cgroup_limits
        self.vma_descriptors = vma_descriptors
        #: vpn -> PteSnapshot for every page recoverable via RDMA: a
        #: plain dict, or a :class:`DerivedSnapshots` when the container
        #: was itself resumed.  Read-only once published.
        self.pte_snapshots = pte_snapshots
        self.fd_specs = fd_specs
        #: Elder lineage *above* this descriptor's machine:
        #: [(machine, descriptor), ...], nearest first (§4.4).
        self.predecessors = predecessors
        self.handler_id = self.uid
        self.auth_key = next(ContainerDescriptor._keys)
        #: Lineage identity (function name) and fencing generation — None
        #: until the lineage layer stamps them via ``assign_lineage``.
        self.lineage = None
        self.generation = None

    def fork_meta(self, lease_expires_at=None):
        """The compact (machine, handler id, key) handle for this descriptor."""
        return ForkMeta(self.machine.machine_id, self.handler_id,
                        self.auth_key, lease_expires_at=lease_expires_at,
                        generation=self.generation)

    def find_vma(self, vpn):
        """The VMA descriptor covering ``vpn``, or None."""
        for vd in self.vma_descriptors:
            start = vd.start_vpn
            if start <= vpn < start + vd.num_pages:
                return vd
        return None

    @property
    def nbytes(self):
        """Wire size of the descriptor (KB-scale; read with one-sided RDMA)."""
        return (params.DESCRIPTOR_BASE_BYTES
                + len(self.vma_descriptors) * params.DESCRIPTOR_PER_VMA_BYTES
                + len(self.pte_snapshots) * params.DESCRIPTOR_PER_PTE_BYTES)

    @property
    def advert_bytes(self):
        """Wire size of one advertisement of this descriptor.

        The record the connection plane pushes ahead of demand: a fixed
        header (fork meta + control-target handle + generation + lease
        expiry) plus one 12 B DCT key per VMA, *plus the descriptor body
        itself* — an advert is useful precisely because the receiver
        never has to fetch the body at fork time.  Doubles as the
        receiver-side cache charge, so the memory-conservation sanitizer
        sees adverts in the same currency they cost on the wire.
        """
        return (params.CONNPLANE_ADVERT_BYTES
                + len(self.vma_descriptors) * params.DCT_KEY_BYTES
                + self.nbytes)

    @property
    def depth(self):
        """Fork hops below the original ancestor (0 = first generation)."""
        return len(self.predecessors)

    def __repr__(self):
        return "<Descriptor uid=%d m%d %.1fKB depth=%d>" % (
            self.uid, self.machine.machine_id,
            self.nbytes / params.KB, self.depth)
