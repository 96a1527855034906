"""Memory regions: the conventional RDMA access-control mechanism.

MITOSIS ultimately *rejects* MR-based control (§3.1: registration cost grows
linearly with container size, and kernel-space DCT is incompatible with
on-the-fly registration), but we implement it faithfully both for the RC
baseline and for the ablation that quantifies why it loses.
"""

from itertools import count

from .. import params
from .errors import RegistrationError


class MemoryRegion:
    """A registered virtual-address range with an rkey."""

    _rkeys = count(1)

    def __init__(self, machine, addr, length):
        self.machine = machine
        self.addr = addr
        self.length = length
        self.rkey = next(MemoryRegion._rkeys)
        self.valid = True

    def covers(self, addr, length):
        """True if the access lies inside this valid region."""
        return (self.valid
                and addr >= self.addr
                and addr + length <= self.addr + self.length)

    def __repr__(self):
        return "<MR rkey=%d [%#x, +%d) %s>" % (
            self.rkey, self.addr, self.length,
            "valid" if self.valid else "revoked")


class MrTable:
    """Per-NIC table of registered regions."""

    def __init__(self, env, machine):
        self.env = env
        self.machine = machine
        self._regions = {}

    def register(self, addr, length):
        """Register [addr, addr+length); costs time linear in size (§3.1).

        Generator: ``yield from`` it inside a process.
        """
        if length <= 0:
            raise RegistrationError("cannot register %r bytes" % (length,))
        cost = (params.MR_REGISTER_BASE
                + params.MR_REGISTER_PER_MB * (length / params.MB))
        yield self.env.timeout(cost)
        region = MemoryRegion(self.machine, addr, length)
        self._regions[region.rkey] = region
        return region

    def deregister(self, region):
        """Invalidate a region so future accesses are rejected.

        Deregistration is fast relative to registration; we charge the base.
        """
        if region.rkey not in self._regions:
            raise RegistrationError("unknown rkey %r" % (region.rkey,))
        yield self.env.timeout(params.MR_REGISTER_BASE)
        region.valid = False
        del self._regions[region.rkey]

    def check(self, rkey, addr, length):
        """True iff an access of ``length`` at ``addr`` under ``rkey`` is legal."""
        region = self._regions.get(rkey)
        return region is not None and region.covers(addr, length)

    def __len__(self):
        return len(self._regions)
