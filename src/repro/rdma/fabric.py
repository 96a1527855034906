"""The wire: moves bytes between RNICs with latency + bandwidth contention.

The model splits a one-sided operation into a small request packet (pure
latency) and a data stream (serialized on the *data source's* link, which is
where contention concentrates when thousands of children read one parent).
"""

from .nic import Rnic
from .qp import link_time


class RdmaFabric:
    """Attaches RNICs to machines (every machine of the cluster unless
    ``rdma_machines`` names a subset) and provides the transfer
    primitives."""

    def __init__(self, env, cluster, rdma_machines=None):
        self.env = env
        self.cluster = cluster
        #: Installed :class:`~repro.faults.FaultInjector`, or None.  Every
        #: fault check below the RDMA layer is gated on this being set, so
        #: the fail-free path costs one ``is None`` test and nothing else.
        self.faults = None
        #: Armed :class:`~repro.fabricnet.FabricNetwork`, or None.  Same
        #: gating contract: with this unset, ``stream`` is byte-identical
        #: to the point-to-point model and fabricnet never imports.
        self.net = None
        if rdma_machines is None:
            rdma_machines = list(cluster)
        self.nics = {}
        for machine in rdma_machines:
            nic = Rnic(env, machine, self)
            machine.nic = nic
            self.nics[machine.machine_id] = nic

    def nic_of(self, machine):
        """The RNIC attached to ``machine``; raises if none."""
        nic = self.nics.get(machine.machine_id)
        if nic is None:
            raise ValueError("machine %r has no RNIC" % (machine,))
        return nic

    def wire_latency(self, src_machine, dst_machine):
        """One-way propagation latency between two machines."""
        return self.cluster.wire_latency(src_machine, dst_machine)

    def stream(self, source_nic, nbytes, extra_time=0.0, dst_machine=None,
               then=0.0):
        """Move ``nbytes`` out of the source NIC's link, then wait ``then``.

        Generator.  ``extra_time`` adds serialized per-transfer work at
        the source (e.g. per-datagram packetization CPU); ``then`` is the
        latency the caller pays after the last byte leaves (a response or
        propagation delay), slept in the same wake-up.

        The point-to-point model queues the transfer on the source NIC's
        link (:meth:`Rnic.occupy`, the FCFS rule) for their
        :func:`~repro.rdma.qp.link_time`, and sleeps once, until
        the transfer's end plus ``then``.

        ``dst_machine`` names where the bytes land.  The point-to-point
        model ignores it (contention lives at the source NIC only); an
        armed :class:`~repro.fabricnet.FabricNetwork` charges the
        transfer against every shared link between the two hosts
        instead of the source link.
        """
        env = self.env
        if nbytes > 0 or extra_time > 0:
            if self.net is not None and dst_machine is not None:
                yield from self.net.transfer(source_nic.machine, dst_machine,
                                             nbytes, extra_time=extra_time)
            else:
                yield env.timeout_at(
                    source_nic.occupy(link_time(nbytes, extra_time)) + then)
                return
        if then > 0:
            yield env.timeout(then)
