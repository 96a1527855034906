"""Virtual memory areas and address spaces.

Each VMA may carry a *pager*: the pluggable object consulted when a fault
hits a page with no local frame and no remote mapping.  This is how the
C/R lazy-restore paths (tmpfs / DFS) and vanilla demand-zero are all
expressed in one mechanism, mirroring Linux's ``vm_operations->fault``.
"""

from enum import Enum

from .. import params
from .errors import KernelError
from .page_table import PageTable


class VmaKind(Enum):
    CODE = "code"
    DATA = "data"
    HEAP = "heap"
    STACK = "stack"
    SHARED_LIB = "shared_lib"
    FILE = "file"
    ANON = "anon"


class Vma:
    """One contiguous virtual region: [start_vpn, end_vpn)."""

    def __init__(self, start_vpn, num_pages, kind, writable=True, pager=None):
        if num_pages <= 0:
            raise KernelError("VMA must span at least one page")
        self.start_vpn = start_vpn
        self.num_pages = num_pages
        self.kind = kind
        self.writable = writable
        self.pager = pager
        #: MITOSIS: the DC target (parent side) / key (child side) granting
        #: RDMA access to this VMA's frames (§4.3, one connection per VMA).
        self.dc_target = None
        self.dct_key = None
        self.dct_target_id = None
        self.dct_owner_machine = None

    @property
    def end_vpn(self):
        """One past the last vpn of the region."""
        return self.start_vpn + self.num_pages

    def vpns(self):
        """All vpns of the region, in order."""
        return range(self.start_vpn, self.end_vpn)

    def clone_for_child(self):
        """Copy the VMA metadata for a forked child (frames excluded)."""
        twin = Vma(self.start_vpn, self.num_pages, self.kind,
                   writable=self.writable, pager=self.pager)
        twin.dct_key = self.dct_key
        twin.dct_target_id = self.dct_target_id
        twin.dct_owner_machine = self.dct_owner_machine
        return twin

    def __repr__(self):
        return "<Vma %s [%d, %d)>" % (self.kind.value, self.start_vpn, self.end_vpn)


class AddressSpace:
    """VMAs + page table for one task (mm_struct)."""

    def __init__(self):
        self.vmas = []
        self.page_table = PageTable()
        self._next_vpn = 0x1000

    def add_vma(self, num_pages, kind, writable=True, pager=None, start_vpn=None):
        """Map a fresh region; returns the new VMA."""
        if start_vpn is None:
            start_vpn = self._next_vpn
        for existing in self.vmas:
            if (start_vpn < existing.end_vpn
                    and existing.start_vpn < start_vpn + num_pages):
                raise KernelError(
                    "VMA [%d, %d) overlaps %r"
                    % (start_vpn, start_vpn + num_pages, existing))
        vma = Vma(start_vpn, num_pages, kind, writable=writable, pager=pager)
        self.vmas.append(vma)
        self._next_vpn = max(self._next_vpn, vma.end_vpn + 0x100)
        return vma

    def find_vma(self, vpn):
        """The VMA covering ``vpn``, or None."""
        for vma in self.vmas:
            start = vma.start_vpn
            if start <= vpn < start + vma.num_pages:
                return vma
        return None

    def grow(self, vma, extra_pages):
        """Extend a VMA upward (stack/heap growth)."""
        new_end = vma.end_vpn + extra_pages
        for other in self.vmas:
            if (other is not vma and other.start_vpn < new_end
                    and other.end_vpn > vma.end_vpn):
                raise KernelError("growth collides with %r" % (other,))
        vma.num_pages += extra_pages
        self._next_vpn = max(self._next_vpn, vma.end_vpn + 0x100)

    @property
    def total_pages(self):
        """Pages spanned by every VMA."""
        return sum(v.num_pages for v in self.vmas)

    @property
    def resident_pages(self):
        """Pages currently backed by frames."""
        return len(self.page_table.present_vpns())

    @property
    def resident_bytes(self):
        """Bytes currently backed by frames."""
        return self.resident_pages * params.PAGE_SIZE

    def descriptor_nbytes(self):
        """Serialized size of the VM metadata (for descriptor sizing)."""
        return (len(self.vmas) * params.DESCRIPTOR_PER_VMA_BYTES
                + self.page_table.nbytes)
