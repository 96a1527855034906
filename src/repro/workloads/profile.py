"""Function profiles and the execution engine.

A profile describes how one invocation behaves on a warmed container:
which fraction of each memory region it touches (in order), how many
pages it writes, how many fresh heap pages it allocates, and how much
pure compute time it burns.  Executing a profile drives the kernel's
fault path page by page — so on-demand restore (CRIU-lazy, DFS, MITOSIS)
automatically pays its per-page costs exactly where the paper says it
does: during *execution*.
"""

from .. import params
from ..kernel import VmaKind


class FunctionProfile:
    """The dynamic behaviour of one serverless function."""

    def __init__(self, name, image, compute_us, touch_fractions,
                 write_fraction=0.2, new_heap_pages=0):
        """
        ``touch_fractions`` maps :class:`VmaKind` to the fraction of that
        region's pages the function touches per invocation (0.0-1.0).
        """
        self.name = name
        self.image = image
        self.compute_us = compute_us
        self.touch_fractions = dict(touch_fractions)
        self.write_fraction = write_fraction
        self.new_heap_pages = new_heap_pages
        for kind, fraction in self.touch_fractions.items():
            if not 0.0 <= fraction <= 1.0:
                raise ValueError("bad fraction %r for %s" % (fraction, kind))
        #: VMA layout -> access plan (:meth:`planned_touches`).
        self._plans = {}

    def planned_touches(self, address_space):
        """Deterministic (vpn, write) access plan over a container's
        VMAs, as a tuple.

        A plan depends only on each VMA's ``(start_vpn, num_pages,
        kind)``, so it is built once per such layout: every container of
        one image shares it, and a grown heap gets a new one.
        """
        vmas = address_space.vmas
        layout = tuple([(vma.start_vpn, vma.num_pages, vma.kind)
                        for vma in vmas])
        plan = self._plans.get(layout)
        if plan is None:
            plan = self._plans[layout] = self._plan(vmas)
        return plan

    def _plan(self, vmas):
        plan = []
        for vma in vmas:
            fraction = self.touch_fractions.get(vma.kind, 0.0)
            touched = int(round(vma.num_pages * fraction))
            writable_region = vma.kind in (VmaKind.HEAP, VmaKind.DATA,
                                           VmaKind.STACK)
            written = (int(round(touched * self.write_fraction))
                       if writable_region else 0)
            for i in range(touched):
                plan.append((vma.start_vpn + i, i < written))
        return tuple(plan)

    def touched_pages(self, address_space):
        """Number of pages one invocation touches in ``address_space``."""
        return len(self.planned_touches(address_space))

    def __repr__(self):
        return "<FunctionProfile %s %.1fms>" % (
            self.name, self.compute_us / params.MS)


class ExecutionResult:
    """Measurements from one function execution."""

    __slots__ = ("latency", "pages_touched", "started_at", "finished_at")

    def __init__(self, latency, pages_touched, started_at, finished_at):
        self.latency = latency
        self.pages_touched = pages_touched
        self.started_at = started_at
        self.finished_at = finished_at


def execute(env, container, profile):
    """Run one invocation of ``profile`` inside ``container``.

    Generator returning an :class:`ExecutionResult`.
    """
    kernel = container.kernel
    task = container.task
    space = task.address_space
    started_at = env.now

    plan = profile.planned_touches(space)

    page_table = space.page_table
    for vpn, write in plan:
        # Fast path: a present, directly writable page costs no simulated
        # time (TLB hit); skip the generator machinery entirely.  A page
        # that is not present traps straight into the fault handler,
        # which takes the PTE read here.
        pte = page_table.entry(vpn)
        if pte is None or not pte.present:
            yield from kernel.handle_fault(task, vpn, write=write, pte=pte)
        elif write and (pte.cow or not pte.writable):
            yield from kernel.touch(task, vpn, write=write)

    # Fresh allocations (results, scratch buffers): demand-zero locally on
    # the first run; a warm container's allocator then reuses the same
    # scratch region on subsequent invocations.
    if profile.new_heap_pages:
        heap = _heap_vma(space)
        base = getattr(task, "_scratch_base", None)
        if base is None:
            base = heap.end_vpn
            space.grow(heap, profile.new_heap_pages)
            task._scratch_base = base
        for i in range(profile.new_heap_pages):
            yield from kernel.touch(task, base + i, write=True)

    # Pure compute, charged once (touch ordering above carries the
    # restore-path costs; interleaving compute does not change totals).
    yield env.timeout(profile.compute_us)

    finished_at = env.now
    return ExecutionResult(
        latency=finished_at - started_at,
        pages_touched=len(plan),
        started_at=started_at,
        finished_at=finished_at,
    )


def _heap_vma(space):
    for vma in space.vmas:
        if vma.kind == VmaKind.HEAP:
            return vma
    raise ValueError("address space has no heap VMA")
