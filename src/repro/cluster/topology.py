"""Cluster topology: racks, switches, inter-machine wire latency.

Mirrors the paper's testbed (§6): 24 machines over two racks; 18 of them
RDMA-capable invokers behind two 100 Gbps switches, the rest acting as load
balancers without RNICs.
"""

from .. import params
from .machine import Machine


class Cluster:
    """A set of machines with a rack-aware latency model."""

    def __init__(self, env, num_machines=params.NUM_MACHINES,
                 num_racks=params.NUM_RACKS):
        if num_machines < 1:
            raise ValueError("need at least one machine")
        if num_racks < 1:
            raise ValueError("need at least one rack")
        self.env = env
        self.machines = [
            Machine(env, machine_id=i, rack=i % num_racks)
            for i in range(num_machines)
        ]
        self.num_racks = num_racks

    def __len__(self):
        return len(self.machines)

    def __iter__(self):
        return iter(self.machines)

    def machine(self, machine_id):
        """The machine with the given id."""
        return self.machines[machine_id]

    def wire_latency(self, src, dst):
        """One-way propagation/switching latency between two machines.

        Same machine: zero (loopback handled by callers).  Same rack: one
        switch hop (folded into the base RDMA latency).  Cross rack: extra
        hop through the second switch.
        """
        if src.machine_id == dst.machine_id:
            return 0.0
        if src.rack == dst.rack:
            return 0.0
        return params.CROSS_RACK_EXTRA_LATENCY

    def split_roles(self, num_invokers=params.NUM_INVOKERS):
        """(invokers, load_balancers) per the paper's 18 + 6 split."""
        if num_invokers > len(self.machines):
            raise ValueError(
                "asked for %d invokers from a %d-machine cluster"
                % (num_invokers, len(self.machines)))
        invokers = self.machines[:num_invokers]
        balancers = self.machines[num_invokers:]
        return invokers, balancers
