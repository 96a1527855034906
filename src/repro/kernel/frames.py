"""Physical frames and the per-machine frame allocator.

Frames carry an opaque ``content`` token so tests can verify that a child
forked across machines observes exactly the bytes its parent had (identity,
not simulated payloads).  Refcounts implement copy-on-write sharing.
"""

from itertools import count

from .. import params
from .errors import KernelError


class Frame:
    """One 4 KB physical page frame."""

    __slots__ = ("pfn", "machine_id", "refcount", "content", "live")

    def __init__(self, pfn, machine_id, content=None):
        self.pfn = pfn
        self.machine_id = machine_id
        self.refcount = 1
        self.content = content
        self.live = True

    def __repr__(self):
        return "<Frame pfn=%d m%d rc=%d %s>" % (
            self.pfn, self.machine_id, self.refcount,
            "live" if self.live else "freed")


class FrameAllocator:
    """Allocates frames against the machine's DRAM account."""

    def __init__(self, env, machine):
        self.env = env
        self.machine = machine
        self._pfns = count(1)
        self.allocated = 0

    def alloc(self, content=None):
        """Allocate one frame (no simulated latency; callers charge it)."""
        self.machine.memory.alloc(params.PAGE_SIZE)
        self.allocated += 1
        return Frame(next(self._pfns), self.machine.machine_id, content)

    def ref(self, frame):
        """Add a sharer (COW or page-cache sharing)."""
        if not frame.live:
            raise KernelError("ref() on freed frame %r" % (frame,))
        frame.refcount += 1
        return frame

    def unref(self, frame):
        """Drop a sharer; frees the frame at refcount zero."""
        self.unref_all((frame,))

    def unref_all(self, frames):
        """Drop one sharer of each of ``frames``, freeing each frame that
        reaches refcount zero, and return the memory of every frame that
        died in one free, also when a freed frame or an underflow stops
        the pass (:class:`KernelError`)."""
        freed = 0
        try:
            for frame in frames:
                if not frame.live:
                    raise KernelError("unref() on freed frame %r" % (frame,))
                if frame.refcount <= 0:
                    raise KernelError("refcount underflow on %r" % (frame,))
                frame.refcount -= 1
                if frame.refcount == 0:
                    frame.live = False
                    freed += 1
        finally:
            if freed:
                self.machine.memory.free(freed * params.PAGE_SIZE)
                self.allocated -= freed

    @property
    def bytes_allocated(self):
        """Bytes held by live frames."""
        return self.allocated * params.PAGE_SIZE
