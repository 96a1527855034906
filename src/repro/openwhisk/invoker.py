"""OpenWhisk invokers: stem-cell prewarm pools and worker loops."""

from collections import deque

from .. import params
from ..sim import Store
from .actions import STEMCELL_START_LATENCY, WARM_KEEPALIVE


class StemCellPool:
    """Prewarmed *generic* runtime containers (OpenWhisk's "prewarm").

    Unlike Fn's per-function cache, a stem cell fits any action of its
    runtime kind — but must still pay ``/init`` to become that action.
    """

    def __init__(self, env, runtime, image, size=2):
        self.env = env
        self.runtime = runtime
        self.image = image
        self.size = size
        self._free = []
        self.refills = 0

    def prefill_at_boot(self):
        """Materialize the initial pool before the experiment clock runs."""
        while len(self._free) < self.size:
            container = self.runtime._materialize(self.image)
            container.mark_running()
            self._free.append(container)

    def take(self):
        """A generic container: pooled, else a cold generic start.

        Generator returning (container, was_prewarmed).
        """
        if self._free:
            container = self._free.pop()
            self.env.process(self._refill_one())
            return container, True
        yield self.env.timeout(STEMCELL_START_LATENCY)
        container = self.runtime._materialize(self.image)
        container.mark_running()
        return container, False

    def _refill_one(self):
        yield self.env.timeout(STEMCELL_START_LATENCY)
        if len(self._free) < self.size:
            container = self.runtime._materialize(self.image)
            container.mark_running()
            self._free.append(container)
            self.refills += 1

    @property
    def available(self):
        """Prewarmed generic containers currently pooled."""
        return len(self._free)


class OwInvoker:
    """One OpenWhisk invoker: activation queue + bounded worker loop."""

    def __init__(self, env, runtime, index, generic_image,
                 concurrency=params.FN_INVOKER_CONCURRENCY,
                 stemcells=2):
        self.env = env
        self.runtime = runtime
        self.kernel = runtime.kernel
        self.machine = runtime.machine
        self.index = index
        self.concurrency = concurrency
        #: The per-invoker activation topic the controller publishes to.
        self.queue = Store(env)
        self.stemcells = StemCellPool(env, runtime, generic_image,
                                      size=stemcells)
        self.stemcells.prefill_at_boot()
        #: action name -> deque of (warm specialized container, cached_at).
        self.warm = {}
        self.live_containers = set()
        self.outstanding = 0

    def warm_take(self, action_name):
        """Pop a non-expired warm container for the action, or None."""
        bucket = self.warm.get(action_name)
        while bucket:
            container, cached_at = bucket.popleft()
            if self.env.now - cached_at <= WARM_KEEPALIVE:
                return container
            self._destroy(container)
        return None

    def warm_put(self, action_name, container):
        """Cache a specialized container as warm for the action."""
        self.warm.setdefault(action_name, deque()).append(
            (container, self.env.now))

    def _destroy(self, container):
        self.live_containers.discard(container)
        self.runtime.destroy(container)

    def memory_bytes(self):
        """Function-related memory on this invoker."""
        overhead = sum(
            c.image.runtime_overhead_bytes + c.extra_overhead_bytes
            for c in self.live_containers)
        return self.machine.memory.used + overhead
