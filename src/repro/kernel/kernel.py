"""The per-machine kernel: faults, COW, swap, local fork, reclaim hooks.

The fault handler implements the dispatch table from the paper (§4.3,
Table 2): *remote-mapped with parent PA in the PTE* -> RDMA pager;
*mapped but no PA* (file-backed etc.) -> the VMA's pager (RPC for MITOSIS,
lazy image reads for C/R); *unmapped growth* -> vanilla local policy.
"""

from itertools import count

from .. import params
from ..metrics import CounterSet
from .cgroups import CgroupPool
from .errors import KernelError, OomKilled, SegmentationFault, TaskExited
from .frames import FrameAllocator
from .process import Task

#: Cost to pull one page back in from the (compressed, in-memory) swap store.
SWAP_IN_LATENCY = 10.0 * params.US
#: Cost to push one page out to swap.
SWAP_OUT_LATENCY = 5.0 * params.US
#: Base cost of a local fork (Table 1: fork-based warm start ~1 ms; the
#: remainder is proportional to page-table size).
FORK_LOCAL_BASE = 0.6 * params.MS
FORK_LOCAL_PER_PTE = 0.002 * params.US


class SwapStore:
    """In-memory swap: reclaimed page contents, addressed by slot."""

    def __init__(self):
        self._slots = {}
        self._ids = count(1)

    def put(self, content):
        """Store content; returns its slot id."""
        slot = next(self._ids)
        self._slots[slot] = content
        return slot

    def get(self, slot):
        """Read a slot without consuming it."""
        try:
            return self._slots[slot]
        except KeyError:
            raise KernelError("bad swap slot %r" % (slot,))

    def pop(self, slot):
        """Read and free a slot."""
        content = self.get(slot)
        del self._slots[slot]
        return content

    def free(self, slots):
        """Free ``slots`` unread (their holder exited)."""
        held = self._slots
        for slot in slots:
            try:
                del held[slot]
            except KeyError:
                raise KernelError("bad swap slot %r" % (slot,))

    def __len__(self):
        return len(self._slots)


class Kernel:
    """One machine's OS kernel."""

    def __init__(self, env, machine):
        self.env = env
        self.machine = machine
        machine.kernel = self
        self.frames = FrameAllocator(env, machine)
        self.swap = SwapStore()
        self.cgroup_pool = CgroupPool(env)
        self.tasks = {}
        self.counters = CounterSet()
        #: MITOSIS plugs its RDMA pager here: object with
        #: ``fetch(task, vma, vpn, pte) -> content`` (a generator).
        self.remote_pager = None
        #: Called as hook(task, vma, vpn, pte) *before* a page is reclaimed;
        #: MITOSIS uses this to destroy the VMA's DC target (§4.3).
        self.reclaim_hooks = []
        #: Generator hooks awaited before reclaim: the traditional *active*
        #: control model synchronizes with every remote child here — the
        #: expensive alternative MITOSIS's passive model replaces (§3).
        self.async_reclaim_hooks = []

    # --- Task lifecycle -------------------------------------------------------
    def create_task(self, name="task"):
        """Create and register a fresh task."""
        task = Task(self, name=name)
        self.tasks[task.pid] = task
        return task

    def release_task(self, task):
        """Free every resident frame and swap slot of ``task`` and forget
        it.  One pass over the real PTEs unmaps the frames and clears
        the slots; the frames then drop their references with
        :meth:`FrameAllocator.unref_all` (one memory-account free), and
        the slots, each held by this task alone, are freed."""
        frames, slots = task.address_space.page_table.unmap_all()
        self.frames.unref_all(frames)
        self.swap.free(slots)
        self.tasks.pop(task.pid, None)

    def warm(self, task):
        """Materialize frames for every VMA page (builds a warmed parent).

        Setup helper: charges no simulated time; experiment clocks start
        after parents are running.
        """
        space = task.address_space
        for vma in space.vmas:
            for vpn in vma.vpns():
                pte = space.page_table.ensure(vpn)
                if not pte.present:
                    pte.map_frame(
                        self.frames.alloc(content=self._content_token(
                            task, vpn, "init")),
                        writable=vma.writable)

    @staticmethod
    def _content_token(task, vpn, tag):
        return "m%d/pid%d/v%d/%s" % (
            task.machine.machine_id, task.pid, vpn, tag)

    # --- Memory access ---------------------------------------------------------
    def touch(self, task, vpn, write=False):
        """Access one page; faults and services as needed.

        Generator returning the page's content token.
        """
        pte = task.address_space.page_table.entry(vpn)
        if pte is not None and pte.present:
            if write:
                if pte.cow:
                    yield from self._break_cow(task, vpn, pte)
                elif not pte.writable:
                    raise SegmentationFault(task, vpn << params.PAGE_SHIFT,
                                            "write to read-only page")
            return pte.frame.content
        pte = yield from self.handle_fault(task, vpn, write=write, pte=pte)
        return pte.frame.content

    def write_page(self, task, vpn, value):
        """Write ``value`` into a page (data-sharing experiments).

        Generator; faults the page in (as a write) first.
        """
        yield from self.touch(task, vpn, write=True)
        pte = task.address_space.page_table.entry(vpn)
        pte.frame.content = value
        return value

    def handle_fault(self, task, vpn, write=False, pte=None):
        """The page-fault handler (Table 2 dispatch).  Generator
        returning the serviced PTE.

        ``pte`` is the PTE the trapping access just read, if it read
        one: a table never replaces a vpn's PTE object, so it is the one
        :meth:`PageTable.ensure` would return, and the handler looks the
        vpn up again only when given None."""
        yield self.env.timeout(params.PAGE_FAULT_OVERHEAD)
        space = task.address_space
        vma = space.find_vma(vpn)
        if vma is None:
            self.counters.incr("fault_segv")
            raise SegmentationFault(task, vpn << params.PAGE_SHIFT, "no VMA")
        if write and not vma.writable:
            self.counters.incr("fault_segv")
            raise SegmentationFault(task, vpn << params.PAGE_SHIFT,
                                    "write to read-only VMA")
        if pte is None:
            pte = space.page_table.ensure(vpn)

        if pte.present:
            if write and pte.cow:
                yield from self._break_cow(task, vpn, pte)
            return pte

        if pte.remote and pte.remote_pfn is not None:
            # VA mapped remotely and the parent PA is right in the PTE:
            # pull it with one-sided RDMA (or fallback) via the remote pager.
            if self.remote_pager is None:
                raise KernelError(
                    "remote-bit PTE but no remote pager installed on m%d"
                    % self.machine.machine_id)
            self.counters["fault_remote"] += 1
            content = yield from self.remote_pager.fetch(task, vma, vpn, pte)
            if not pte.present:  # pagers may install (COW-shared frames)
                self._install(task, pte, vma, content)
            if pte.remote:  # a pager's read install already cleared it
                pte.clear_remote()
            if write and pte.cow:
                yield from self._break_cow(task, vpn, pte)
            return pte

        if pte.remote:
            # VA mapped remotely but no PA recorded (e.g. parent file page
            # never loaded): Table 2 says RPC.
            if self.remote_pager is None:
                raise KernelError("no remote pager installed")
            self.counters["fault_remote_rpc"] += 1
            content = yield from self.remote_pager.fetch_fallback(
                task, vma, vpn, pte)
            self._install(task, pte, vma, content)
            pte.clear_remote()
            return pte

        if pte.swap_slot is not None:
            self.counters["fault_swap_in"] += 1
            yield self.env.timeout(SWAP_IN_LATENCY)
            content = self.swap.pop(pte.swap_slot)
            self._install(task, pte, vma, content)  # map_frame clears the slot
            return pte

        if vma.pager is not None:
            self.counters["fault_pager"] += 1
            content = yield from vma.pager.fetch(task, vma, vpn)
            self._install(task, pte, vma, content)
            return pte

        # Unmapped growth (stack/heap): vanilla demand-zero policy.
        self.counters["fault_demand_zero"] += 1
        yield self.env.timeout(params.FRAME_ALLOC_LATENCY)
        self._install(task, pte, vma,
                      self._content_token(task, vpn, "zero"))
        return pte

    def _install(self, task, pte, vma, content):
        """Map a fresh frame holding ``content`` after a fault's sleep;
        a task that exited meanwhile gets :class:`TaskExited` instead."""
        if task.state == "dead":
            raise TaskExited(task)
        self._charge_cgroup(task)
        pte.map_frame(self.frames.alloc(content=content),
                      writable=vma.writable)

    def _charge_cgroup(self, task):
        """Enforce the task's cgroup memory limit before growing its RSS."""
        limit = task.cgroup.memory_limit
        if limit is None:
            return
        rss = task.address_space.resident_bytes
        if rss + params.PAGE_SIZE > limit:
            self.counters.incr("oom_kills")
            task.state = "oom-killed"
            raise OomKilled(task, limit)

    def _break_cow(self, task, vpn, pte):
        """Copy-on-write break: private copy of a shared frame."""
        self.counters["fault_cow"] += 1
        yield self.env.timeout(
            params.FRAME_ALLOC_LATENCY
            + params.transfer_time(params.PAGE_SIZE, params.DRAM_COPY_BANDWIDTH))
        if task.state == "dead":
            raise TaskExited(task)
        old = pte.break_cow_to(self.frames.alloc(content=pte.frame.content))
        self.frames.unref(old)

    # --- Local fork -------------------------------------------------------------
    def fork_local(self, parent, name=None):
        """Classic COW fork on this machine.  Generator returning the child."""
        space = parent.address_space
        num_ptes = len(space.page_table)
        yield self.env.timeout(FORK_LOCAL_BASE + FORK_LOCAL_PER_PTE * num_ptes)
        child = Task(self, name=name or (parent.name + "-child"),
                     registers=parent.registers.clone(),
                     namespaces=parent.namespaces.clone())
        child.fd_table = {fd: d.clone() for fd, d in parent.fd_table.items()}
        child_space = child.address_space
        child_space.vmas = [vma.clone_for_child() for vma in space.vmas]
        swap = self.swap
        for _, pte, child_pte in space.page_table.fork_into(
                child_space.page_table):
            if pte.present:
                child_pte.map_frame(self.frames.ref(pte.frame),
                                    writable=pte.writable, cow=True)
                pte.share_cow()
            elif pte.swap_slot is not None:
                # A swap-in frees its slot: the child gets its own copy.
                child_pte.set_swap_slot(swap.put(swap.get(pte.swap_slot)))
        child.predecessors = list(parent.predecessors)
        self.tasks[child.pid] = child
        return child

    # --- Reclaim (the trigger for passive access control) ------------------------
    def reclaim(self, task, vpns):
        """Swap out the given present pages of ``task``.

        Runs the registered reclaim hooks first — in MITOSIS's passive model
        the parent revokes RDMA access (destroys DC targets) and *then*
        frees the frames, never synchronizing with remote children (§4.3).
        Generator.
        """
        space = task.address_space
        reclaimed = 0
        for vpn in vpns:
            pte = space.page_table.entry(vpn)
            if pte is None or not pte.present:
                continue
            vma = space.find_vma(vpn)
            for hook in self.reclaim_hooks:
                hook(task, vma, vpn, pte)
            for hook in self.async_reclaim_hooks:
                yield from hook(task, vma, vpn, pte)
            yield self.env.timeout(SWAP_OUT_LATENCY)
            self.frames.unref(
                pte.swap_out(self.swap.put(pte.frame.content)))
            reclaimed += 1
            self.counters.incr("pages_reclaimed")
        return reclaimed
