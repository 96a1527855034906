"""Machines: CPU, DRAM accounting, and attachment points for NIC/kernel."""

from .. import params
from ..sim import Resource


class OutOfMemoryError(Exception):
    """Raised when a machine's DRAM account would go over capacity."""


class MemoryAccount:
    """Byte-accurate DRAM accounting for one machine.

    Tracks current usage and the high-water mark; experiment harnesses
    sample it into a :class:`~repro.metrics.TimeSeries` to reproduce the
    paper's memory figures (Fig. 11 b, Fig. 12 b).
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.used = 0
        self.peak = 0

    def alloc(self, nbytes):
        """Charge ``nbytes`` against capacity; raises OutOfMemoryError when over."""
        if nbytes < 0:
            raise ValueError("cannot allocate %r bytes" % (nbytes,))
        if self.used + nbytes > self.capacity:
            raise OutOfMemoryError(
                "allocating %d bytes would exceed capacity (%d/%d used)"
                % (nbytes, self.used, self.capacity))
        self.used += nbytes
        if self.used > self.peak:
            self.peak = self.used
        return nbytes

    def free(self, nbytes):
        """Return ``nbytes`` to the account."""
        if nbytes < 0:
            raise ValueError("cannot free %r bytes" % (nbytes,))
        if nbytes > self.used:
            raise ValueError(
                "freeing %d bytes but only %d allocated" % (nbytes, self.used))
        self.used -= nbytes

    @property
    def available(self):
        """Bytes still unallocated."""
        return self.capacity - self.used


class Machine:
    """One cluster node: cores, DRAM, and (attached later) NIC and kernel.

    ``cores`` is a counted resource processes acquire to model CPU
    contention; ``sandbox_slots`` models the bounded concurrency of
    container/sandbox initialisation observed in the paper (§6.1: fork
    latency is "dominated by initializing the sandbox environment").
    """

    def __init__(self, env, machine_id, rack):
        self.env = env
        self.machine_id = machine_id
        self.rack = rack
        self.cores = Resource(env, capacity=params.CORES_PER_MACHINE)
        self.memory = MemoryAccount(params.DRAM_PER_MACHINE)
        self.sandbox_slots = Resource(env, capacity=params.SANDBOX_INIT_SLOTS)
        self.nic = None      # attached by repro.rdma
        self.kernel = None   # attached by repro.kernel

    def __repr__(self):
        return "<Machine m%d rack=%d>" % (self.machine_id, self.rack)

    def __hash__(self):
        return hash(self.machine_id)

    def __eq__(self, other):
        return isinstance(other, Machine) and other.machine_id == self.machine_id
