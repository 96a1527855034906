"""Memory-management daemons that change virtual->physical mappings.

The paper's §4.3 lists the kernel mechanisms that can move or reclaim a
physical page under a remote child's feet: swap (implemented in
:mod:`repro.kernel.kernel`), kernel samepage merging, transparent huge
pages, and page migration.  KSM and migration are implemented here; both
fire the machine's reclaim hooks *before* touching a frame, so MITOSIS's
passive access control revokes remote access first — exactly the ordering
the passive model requires.
"""

from .. import params
from .errors import KernelError

#: CPU cost to checksum-compare one candidate page in a KSM pass.
KSM_COMPARE_LATENCY = 0.1 * params.US
#: Cost to rewrite mappings and free the duplicate for one merged page.
KSM_MERGE_LATENCY = 1.0 * params.US
#: Cost to copy + remap one migrated page.
MIGRATE_PAGE_LATENCY = 1.5 * params.US


class KsmDaemon:
    """Kernel samepage merging: dedupe identical frames across tasks.

    Duplicate frames are merged onto one canonical frame, with every
    mapping downgraded to copy-on-write — the standard KSM contract.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.env = kernel.env
        self.pages_merged = 0
        self.bytes_saved = 0

    def scan(self, tasks=None):
        """One merge pass over ``tasks`` (default: all tasks).  Generator
        returning the number of pages merged."""
        kernel = self.kernel
        tasks = list(tasks) if tasks is not None else list(
            kernel.tasks.values())
        by_content = {}
        candidates = 0
        for task in tasks:
            for vpn, pte in task.address_space.page_table.entries():
                if pte.present and pte.frame.live:
                    candidates += 1
                    by_content.setdefault(pte.frame.content, []).append(
                        (task, vpn, pte))
        yield self.env.timeout(candidates * KSM_COMPARE_LATENCY)

        merged = 0
        for content, mappings in by_content.items():
            frames = {id(pte.frame): pte.frame for _, _, pte in mappings}
            if len(frames) < 2:
                continue
            canonical = mappings[0][2].frame
            for task, vpn, pte in mappings:
                if pte.frame is canonical:
                    pte.share_cow()
                    continue
                vma = task.address_space.find_vma(vpn)
                for hook in kernel.reclaim_hooks:
                    hook(task, vma, vpn, pte)
                yield self.env.timeout(KSM_MERGE_LATENCY)
                old = pte.migrate_to(kernel.frames.ref(canonical))
                pte.share_cow()
                kernel.frames.unref(old)
                if not old.live:
                    self.bytes_saved += params.PAGE_SIZE
                merged += 1
        self.pages_merged += merged
        kernel.counters.incr("ksm_pages_merged", merged)
        return merged


#: Pages per transparent huge page (2 MB / 4 KB).
THP_SPAN = 512
#: Cost to collapse one huge-page-aligned run (copy + remap).
THP_COLLAPSE_LATENCY = 60.0 * params.US


class ThpDaemon:
    """Transparent huge pages: collapse aligned runs into huge mappings.

    Collapsing physically *moves* the 4 KB frames into one contiguous
    huge frame, so — like swap, KSM, and migration — it must revoke any
    remote child's access to the old frames first (§4.3's list of
    mapping-changing mechanisms).
    """

    def __init__(self, kernel, span=THP_SPAN):
        if span < 2:
            raise KernelError("huge-page span must cover several pages")
        self.kernel = kernel
        self.env = kernel.env
        self.span = span
        self.runs_collapsed = 0

    def _collapsible_runs(self, task, vma):
        """Aligned fully-present, private runs inside ``vma``."""
        table = task.address_space.page_table
        runs = []
        start = vma.start_vpn - (vma.start_vpn % self.span)
        if start < vma.start_vpn:
            start += self.span
        while start + self.span <= vma.end_vpn:
            ptes = [table.entry(vpn)
                    for vpn in range(start, start + self.span)]
            if all(p is not None and p.present and not p.huge
                   and p.frame.refcount == 1 for p in ptes):
                runs.append((start, ptes))
            start += self.span
        return runs

    def collapse(self, task, vma):
        """One khugepaged pass over ``vma``.  Generator returning the
        number of huge mappings created."""
        kernel = self.kernel
        collapsed = 0
        for start, ptes in self._collapsible_runs(task, vma):
            for offset, pte in enumerate(ptes):
                for hook in kernel.reclaim_hooks:
                    hook(task, vma, start + offset, pte)
            yield self.env.timeout(THP_COLLAPSE_LATENCY)
            for pte in ptes:
                old = pte.migrate_to(
                    kernel.frames.alloc(content=pte.frame.content), huge=True)
                kernel.frames.unref(old)
            collapsed += 1
        self.runs_collapsed += collapsed
        kernel.counters.incr("thp_runs_collapsed", collapsed)
        return collapsed


class PageMigrator:
    """Page migration: move a frame to a new physical location.

    Models NUMA balancing / compaction: content is preserved but the
    physical address changes, so any remote mapping of the old frame must
    be revoked first.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.env = kernel.env
        self.pages_migrated = 0

    def migrate(self, task, vpns):
        """Migrate the given present pages.  Generator returning the count."""
        kernel = self.kernel
        moved = 0
        for vpn in vpns:
            pte = task.address_space.page_table.entry(vpn)
            if pte is None or not pte.present:
                continue
            if pte.frame.refcount > 1:
                # Shared (COW) frames are pinned from migration's point of
                # view here; real kernels walk the rmap — out of scope.
                continue
            vma = task.address_space.find_vma(vpn)
            for hook in kernel.reclaim_hooks:
                hook(task, vma, vpn, pte)
            yield self.env.timeout(MIGRATE_PAGE_LATENCY)
            old = pte.migrate_to(
                kernel.frames.alloc(content=pte.frame.content))
            kernel.frames.unref(old)
            moved += 1
        self.pages_migrated += moved
        kernel.counters.incr("pages_migrated", moved)
        return moved
