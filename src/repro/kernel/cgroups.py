"""Cgroups and the SOCK-style pre-created pool.

Creating isolation structures from scratch dominates containerization
(§2.4 / §6: >190 ms); SOCK's lean containers pre-create them so taking one
is nearly free.  MITOSIS generalizes this to its distributed fork (§4.1).
"""

from itertools import count

from .. import params


class Cgroup:
    """One cgroup: resource limits for a container."""

    _ids = count(1)

    def __init__(self):
        self.cgroup_id = next(Cgroup._ids)
        self.memory_limit = None
        self.in_use = False

    def assign(self, memory_limit=None):
        """Set the memory limit and mark the cgroup busy."""
        self.memory_limit = memory_limit
        self.in_use = True

    def release(self):
        """Mark the cgroup free for reuse."""
        self.in_use = False

    def __repr__(self):
        return "<Cgroup %d %s>" % (
            self.cgroup_id, "busy" if self.in_use else "free")


class CgroupPool:
    """Pool of ready cgroups; refills asynchronously after each take."""

    def __init__(self, env):
        self.env = env
        self._free = [Cgroup() for _ in range(params.CGROUP_POOL_SIZE)]
        self.takes = 0
        self.slow_creates = 0

    def take(self):
        """Get a cgroup: pooled (fast) or freshly created (slow path).

        Generator returning a :class:`Cgroup`.
        """
        self.takes += 1
        if self._free:
            cgroup = self._free.pop()
            self.env.process(self._refill_one())
            return cgroup
        self.slow_creates += 1
        yield self.env.timeout(params.CGROUP_POOL_REFILL_LATENCY)
        return Cgroup()

    def give_back(self, cgroup):
        """Return a cgroup to the pool."""
        cgroup.release()
        if len(self._free) < params.CGROUP_POOL_SIZE:
            self._free.append(cgroup)

    def _refill_one(self):
        yield self.env.timeout(params.CGROUP_POOL_REFILL_LATENCY)
        if len(self._free) < params.CGROUP_POOL_SIZE:
            self._free.append(Cgroup())

    @property
    def available(self):
        """Free cgroups currently pooled."""
        return len(self._free)


class NamespaceSet:
    """The namespace flags a container runs under."""

    FLAGS = ("pid", "net", "mnt", "uts", "ipc", "user")

    def __init__(self, **enabled):
        unknown = set(enabled) - set(self.FLAGS)
        if unknown:
            raise ValueError("unknown namespace flags: %s" % sorted(unknown))
        self.flags = {flag: bool(enabled.get(flag, True)) for flag in self.FLAGS}

    def clone(self):
        """An independent copy of the flags."""
        return NamespaceSet(**self.flags)

    def __eq__(self, other):
        return isinstance(other, NamespaceSet) and other.flags == self.flags

    def __repr__(self):
        on = [f for f, v in self.flags.items() if v]
        return "<NamespaceSet %s>" % ",".join(on)
