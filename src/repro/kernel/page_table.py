"""Page tables and PTEs, including MITOSIS's extended bits.

The PTE carries the vanilla present/writable/COW flags plus two extensions
from the paper (§4.3, §4.4):

* a **remote** bit marking pages whose backing frame lives on an elder
  machine and must be pulled with RDMA on first access, and
* a 4-bit **owner index** into the task's predecessor list, identifying
  *which* elder machine holds the frame for multi-hop forks (max 15 hops).
"""

from .. import params
from .errors import KernelError


class Pte:
    """One page-table entry."""

    __slots__ = ("present", "writable", "cow", "remote", "swap_slot",
                 "frame", "remote_pfn", "owner_index", "huge")

    def __init__(self):
        self.present = False
        self.writable = True
        self.cow = False
        self.remote = False
        self.swap_slot = None
        self.frame = None         # local Frame when present
        self.remote_pfn = None    # parent physical frame number when remote
        self.owner_index = 0      # index into the predecessor list (4 bits)
        self.huge = False         # part of a THP-collapsed huge mapping

    @staticmethod
    def owner_index_error(index):
        """The :class:`KernelError` for an owner index that does not fit
        the 4 PTE bits."""
        return KernelError(
            "owner index %d does not fit the 4 PTE bits (max %d)"
            % (index, params.MAX_FORK_HOPS))

    def set_owner_index(self, index):
        """Set the 4-bit owner index; raises beyond MAX_FORK_HOPS."""
        if not 0 <= index <= params.MAX_FORK_HOPS:
            raise self.owner_index_error(index)
        self.owner_index = index

    # --- Owning mutation API ---------------------------------------------------
    # Every PTE bit-field write in the tree goes through these methods; the
    # `no-raw-pte-mutation` reprolint rule enforces that statically and the
    # frame-refcount sanitizer cross-checks the resulting mappings at
    # runtime.  Frame refcounts stay with FrameAllocator.ref()/unref() —
    # these methods move frames between PTEs but never count references.

    def map_frame(self, frame, writable, cow=False):
        """Install ``frame`` as the resident mapping.

        Clears any swap slot (residency and a swap copy are exclusive) and
        returns the frame so install-and-register call sites stay one
        expression.  The caller owns the frame's reference.
        """
        self.frame = frame
        self.present = True
        self.writable = writable
        self.cow = cow
        self.swap_slot = None
        return frame

    def unmap(self):
        """Clear residency; returns the unmapped frame (caller drops the ref)."""
        frame, self.frame = self.frame, None
        self.present = False
        return frame

    def migrate_to(self, frame, huge=None):
        """Replace the backing frame in place (KSM/THP/migration).

        Permission and sharing bits are preserved; returns the old frame
        (caller drops its ref).  ``huge`` overrides the huge bit when not
        None (THP collapse).
        """
        old, self.frame = self.frame, frame
        if huge is not None:
            self.huge = huge
        return old

    def share_cow(self):
        """Downgrade the mapping to copy-on-write (fork / KSM sharing)."""
        self.cow = True

    def break_cow_to(self, frame):
        """Give this mapping a private writable copy; returns the shared
        frame (caller drops its ref)."""
        old, self.frame = self.frame, frame
        self.cow = False
        self.writable = True
        return old

    def mark_remote(self, remote_pfn, owner_hop=0):
        """Point the PTE at an elder machine's frame (fork_resume, §4.3).

        ``remote_pfn`` may be None for the "mapped but no PA" Table 2 row
        (the next access takes the RPC path).
        """
        self.present = False
        self.frame = None
        self.remote = True
        self.remote_pfn = remote_pfn
        self.set_owner_index(owner_hop)

    def clear_remote(self):
        """Drop the remote bit once the page is materialized locally."""
        self.remote = False

    def drop_remote_pa(self):
        """Forget the direct parent PA (active-model invalidation): the
        next access falls back to the RPC row of Table 2."""
        self.remote_pfn = None

    def swap_out(self, slot):
        """Move residency to swap ``slot``; returns the evicted frame
        (caller drops its ref)."""
        frame = self.unmap()
        self.swap_slot = slot
        return frame

    def copy_mapping_from(self, other):
        """Copy the non-resident mapping bits from ``other`` (fork).

        Residency (present/frame/cow) is left alone — the forking kernel
        decides sharing via :meth:`map_frame`; the huge bit is not
        inherited (a child's mappings start as 4 KB COW); nor is a swap
        slot, which the first swap-in frees: the forking kernel gives
        the child a slot of its own (:meth:`set_swap_slot`)."""
        self.writable = other.writable
        self.remote = other.remote
        self.remote_pfn = other.remote_pfn
        self.owner_index = other.owner_index

    def set_swap_slot(self, slot):
        """Back this non-resident PTE by swap ``slot``, which no other
        PTE may hold: a swap-in frees its slot (local fork)."""
        self.swap_slot = slot

    def __repr__(self):
        bits = "".join((
            "P" if self.present else "-",
            "W" if self.writable else "-",
            "C" if self.cow else "-",
            "R" if self.remote else "-",
        ))
        return "<Pte %s frame=%s remote_pfn=%s owner=%d>" % (
            bits, self.frame, self.remote_pfn, self.owner_index)


def _remote_pte(snap):
    """A remote PTE for one descriptor snapshot entry (§4.3): what
    :meth:`Pte.mark_remote` makes of a fresh PTE, fields set here."""
    hop = snap.owner_hop
    if not 0 <= hop <= params.MAX_FORK_HOPS:
        raise Pte.owner_index_error(hop)
    pte = Pte()
    pte.remote = True
    pte.remote_pfn = snap.remote_pfn
    pte.owner_index = hop
    return pte


class PageTable:
    """Sparse vpn -> PTE map for one address space.

    A resumed child's table sits over its descriptor's PTE snapshot map
    (:meth:`attach_snapshot`) instead of copying it: a snapshot vpn
    missing from the local map becomes a real remote PTE, as
    :meth:`Pte.mark_remote` would build it, the first time :meth:`entry`
    or :meth:`ensure` sees it — read-on-access applied to the page table
    itself.  A table never replaces the PTE object of a vpn, so a PTE
    read once stays the vpn's PTE.

    ``len``, ``in``, :meth:`entries`, :meth:`remote_vpns` and
    :attr:`nbytes` see the whole overlay, in the order an eager copy
    would have had: snapshot order first, then locally added vpns in
    insertion order.  :meth:`materialized` and :meth:`present_vpns` walk
    only the real PTEs — an untouched snapshot entry never holds a frame.
    :meth:`fork_into` hands the snapshot map on to a forked table, so a
    local fork copies only the real PTEs.
    """

    def __init__(self):
        self._entries = {}
        #: The attached vpn -> PteSnapshot map, or None.  Never mutated.
        self._base = None

    def attach_snapshot(self, snapshots):
        """Overlay this fresh table on a descriptor's ``vpn ->
        PteSnapshot`` map, which must stay unchanged from then on."""
        self._base = snapshots

    @property
    def snapshot(self):
        """The attached ``vpn -> PteSnapshot`` map, or None.  Tables
        share it, so it is read-only."""
        return self._base

    def __len__(self):
        base = self._base
        if base is None:
            return len(self._entries)
        return len(base) + sum(1 for vpn in self._entries if vpn not in base)

    def __contains__(self, vpn):
        return vpn in self._entries or (
            self._base is not None and vpn in self._base)

    def _materialize(self, vpn):
        """The PTE for an untouched snapshot vpn, or None."""
        snap = self._base.get(vpn)
        if snap is None:
            return None
        pte = self._entries[vpn] = _remote_pte(snap)
        return pte

    def entry(self, vpn):
        """The PTE for ``vpn``, or None when nothing is mapped there."""
        pte = self._entries.get(vpn)
        if pte is None and self._base is not None:
            return self._materialize(vpn)
        return pte

    def ensure(self, vpn):
        """The PTE for ``vpn``, creating an empty one if needed."""
        pte = self.entry(vpn)
        if pte is None:
            pte = self._entries[vpn] = Pte()
        return pte

    def fork_into(self, child):
        """Fork this table into the fresh table ``child`` (local fork).

        ``child`` attaches this table's snapshot map, so an untouched
        snapshot entry stays unbuilt in both; each real PTE gets a fresh
        child PTE through :meth:`Pte.copy_mapping_from`.  Yields
        ``(vpn, pte, child_pte)`` per real PTE, for the forking kernel to
        share frames; the fork is complete once the iterator is.
        """
        child._base = self._base
        child_entries = child._entries
        for vpn, pte in self._entries.items():
            child_pte = child_entries[vpn] = Pte()
            child_pte.copy_mapping_from(pte)
            yield vpn, pte, child_pte

    def entries(self):
        """Iterate (vpn, pte) pairs over the whole table.

        Flattens an attached snapshot first: every untouched snapshot vpn
        becomes a real PTE, and the map takes the eager copy's order.
        Only walks that depend on that order use it: KSM, CRIU checkpoint
        and :meth:`remote_vpns`.
        """
        base = self._base
        if base is not None:
            local = self._entries
            flat = {vpn: local.get(vpn) or _remote_pte(snap)
                    for vpn, snap in base.items()}
            flat.update(local)
            self._entries = flat
            self._base = None
        return self._entries.items()

    def materialized(self):
        """Iterate (vpn, pte) pairs of the real PTEs only.

        Frame walks use this: it neither pays for nor changes the
        untouched part of an attached snapshot.
        """
        return self._entries.items()

    def present_vpns(self):
        """All vpns with resident frames."""
        return [vpn for vpn, pte in self._entries.items() if pte.present]

    def remote_vpns(self):
        """All vpns with the remote bit set."""
        return [vpn for vpn, pte in self.entries() if pte.remote]

    @property
    def nbytes(self):
        """Serialized size of the table (descriptor accounting)."""
        return len(self) * params.DESCRIPTOR_PER_PTE_BYTES
