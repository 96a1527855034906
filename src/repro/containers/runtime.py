"""The Docker-like container runtime on each machine.

Provides the three start paths the paper compares:

* **cold start** — build everything from scratch (783 ms for TC0);
* **cached warm start** — unpause a kept-alive instance (<1 ms, but the
  per-machine docker daemon serializes pause/unpause, capping one invoker
  at ~1,300 starts/s, §6.1);
* **lean start** — take a pooled cgroup + namespaces and hand back an
  empty container shell in ~10 ms (SOCK's lean containers, §4.1), which
  C/R restore and MITOSIS both build on.
"""

from .. import params
from ..kernel import NamespaceSet
from ..sim import Resource
from .container import Container, ContainerState


class ContainerRuntime:
    """Per-machine runtime daemon."""

    def __init__(self, env, kernel):
        self.env = env
        self.kernel = kernel
        self.machine = kernel.machine
        #: The dockerd control path is serialized (pause/unpause bottleneck).
        self.daemon = Resource(env, capacity=1)

    # --- Start paths -----------------------------------------------------------
    def cold_start(self, image):
        """Start a container from scratch.  Generator returning the container.

        Pays full containerization + managed-runtime initialisation, then
        materializes the warmed memory layout.
        """
        yield self.machine.sandbox_slots.acquire()
        try:
            yield self.env.timeout(image.cold_start_latency)
            container = self._materialize(image)
        finally:
            self.machine.sandbox_slots.release()
        container.mark_running()
        return container

    def lean_start_empty(self, image, extra_slot_time=0.0):
        """SOCK-style fast containerization: pooled isolation, empty shell.

        Generator returning an *empty* container (no memory state) in
        ~10 ms; the caller (C/R restore or MITOSIS resume) fills in the
        execution state.  ``extra_slot_time`` is the caller's CPU-bound
        state-rebuild work, charged while still holding the sandbox slot —
        it is the per-invoker start-throughput limiter (§6.1: fork latency
        is dominated by initializing the sandbox environment).
        """
        yield self.machine.sandbox_slots.acquire()
        try:
            cgroup = yield from self.kernel.cgroup_pool.take()
            yield self.env.timeout(params.LEAN_CONTAINERIZATION
                                   + extra_slot_time)
        finally:
            self.machine.sandbox_slots.release()
        task = self.kernel.create_task(name=image.name)
        task.namespaces = NamespaceSet()
        container = Container(image, task, cgroup)
        return container

    def pause(self, container):
        """Pause a running container (kept warm in the cache).  Generator."""
        yield self.daemon.acquire()
        try:
            yield self.env.timeout(params.CACHE_UNPAUSE_LATENCY)
        finally:
            self.daemon.release()
        container.state = ContainerState.PAUSED

    def unpause(self, container):
        """Resume a paused container — the cached warm start.  Generator."""
        if container.state != ContainerState.PAUSED:
            raise ValueError("cannot unpause %r" % (container,))
        yield self.daemon.acquire()
        try:
            yield self.env.timeout(params.CACHE_UNPAUSE_LATENCY)
        finally:
            self.daemon.release()
        container.mark_running()
        return container

    def destroy(self, container):
        """Tear a container down and release its resources."""
        container.state = ContainerState.DEAD
        self.kernel.cgroup_pool.give_back(container.cgroup)
        container.task.exit()

    # --- Helpers ------------------------------------------------------------------
    def _materialize(self, image):
        """Build a warmed task implementing the image's memory layout."""
        task = self.kernel.create_task(name=image.name)
        for kind, pages, writable in image.layout.regions():
            task.address_space.add_vma(pages, kind, writable=writable)
        self.kernel.warm(task)
        cgroup_source = self.kernel.cgroup_pool
        cgroup = cgroup_source._free.pop() if cgroup_source._free else None
        if cgroup is None:
            from ..kernel import Cgroup
            cgroup = Cgroup()
        return Container(image, task, cgroup)
