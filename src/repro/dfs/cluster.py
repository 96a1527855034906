"""The DFS data path: monitor, OSDs, client operations."""

import hashlib

from .. import params
from ..sim import Resource


class DfsError(Exception):
    """Missing objects, bad ranges, or placement failures."""


class Osd:
    """One object-storage daemon: a serialized service loop + DRAM pool."""

    def __init__(self, env, machine):
        self.env = env
        self.machine = machine
        self.service = Resource(env, capacity=1)
        self.stored_bytes = 0
        self.requests_served = 0

    def serve(self, nbytes):
        """Hold the OSD's service loop while one request is processed.

        Per-request CPU plus bandwidth-proportional data movement, fully
        serialized: queueing here is what collapses CRIU-remote's
        throughput when thousands of restores hit the DFS at once (Fig. 10).
        Generator.
        """
        yield self.service.acquire()
        try:
            yield self.env.timeout(
                params.DFS_OSD_REQUEST_CPU
                + params.transfer_time(nbytes, params.DFS_OSD_BANDWIDTH))
        finally:
            self.service.release()
        self.requests_served += 1


class _StoredObject:
    __slots__ = ("name", "nbytes", "payload", "osd")

    def __init__(self, name, nbytes, payload, osd):
        self.name = name
        self.nbytes = nbytes
        self.payload = payload
        self.osd = osd


class CephLikeDfs:
    """The DFS cluster: deterministic placement over a set of OSD machines."""

    def __init__(self, env, fabric, osd_machines):
        if not osd_machines:
            raise ValueError("need at least one OSD machine")
        self.env = env
        self.fabric = fabric
        self.osds = [Osd(env, m) for m in osd_machines]
        self._objects = {}

    # --- Placement -------------------------------------------------------------
    def _place(self, name):
        digest = hashlib.sha256(name.encode()).digest()
        return self.osds[int.from_bytes(digest[:4], "big") % len(self.osds)]

    def exists(self, name):
        """True if an object of that name is stored."""
        return name in self._objects

    def size(self, name):
        """Stored object size in bytes."""
        return self._lookup(name).nbytes

    def payload(self, name):
        """The opaque payload attached at put() (e.g. a checkpoint image)."""
        return self._lookup(name).payload

    def _lookup(self, name):
        try:
            return self._objects[name]
        except KeyError:
            raise DfsError("no such object %r" % (name,))

    # --- Client operations -------------------------------------------------------
    def put(self, client_machine, name, nbytes, payload=None):
        """Store an object.  Generator."""
        if nbytes < 0:
            raise DfsError("negative object size")
        osd = self._place(name)
        yield self.env.timeout(params.DFS_METADATA_LATENCY)
        yield from self._wire(client_machine, osd.machine, nbytes)
        yield from osd.serve(nbytes)
        osd.machine.memory.alloc(nbytes)
        osd.stored_bytes += nbytes
        self._objects[name] = _StoredObject(name, nbytes, payload, osd)

    def get(self, client_machine, name):
        """Read a whole object.  Generator returning its size."""
        obj = self._lookup(name)
        yield self.env.timeout(params.DFS_METADATA_LATENCY)
        yield self.env.timeout(2 * params.DFS_REQUEST_OVERHEAD)
        yield from obj.osd.serve(obj.nbytes)
        yield from self._wire(obj.osd.machine, client_machine, obj.nbytes)
        return obj.nbytes

    def get_range(self, client_machine, name, nbytes):
        """Read part of an object (metadata-only reads, partial restores)."""
        obj = self._lookup(name)
        if nbytes > obj.nbytes:
            raise DfsError("range %d beyond object size %d" % (nbytes, obj.nbytes))
        yield self.env.timeout(params.DFS_METADATA_LATENCY)
        yield self.env.timeout(2 * params.DFS_REQUEST_OVERHEAD)
        yield from obj.osd.serve(nbytes)
        yield from self._wire(obj.osd.machine, client_machine, nbytes)
        return nbytes

    def page_in(self, client_machine, name):
        """Lazy single-page read: the on-demand restore path through DFS.

        Pays the fixed per-page software overhead (request mapping, file
        abstraction, messenger) that makes "+OnDemand DFS" slow down
        function *execution* (Fig. 2 d,e), plus OSD queueing.  Generator.
        """
        obj = self._lookup(name)
        yield self.env.timeout(params.DFS_LAZY_PAGE_LATENCY)
        yield from obj.osd.serve(params.PAGE_SIZE)
        yield from self._wire(obj.osd.machine, client_machine, params.PAGE_SIZE)
        return params.PAGE_SIZE

    def delete(self, name):
        """Remove an object and free its OSD memory."""
        obj = self._objects.pop(name, None)
        if obj is None:
            raise DfsError("no such object %r" % (name,))
        obj.osd.machine.memory.free(obj.nbytes)
        obj.osd.stored_bytes -= obj.nbytes

    # --- Internals ------------------------------------------------------------------
    def _wire(self, src_machine, dst_machine, nbytes):
        """Move bytes between client and OSD over the RDMA messenger."""
        if src_machine.machine_id == dst_machine.machine_id:
            return
        then = (params.RDMA_READ_LATENCY
                + self.fabric.wire_latency(src_machine, dst_machine))
        src_nic = self.fabric.nics.get(src_machine.machine_id)
        if src_nic is not None:
            yield from self.fabric.stream(src_nic, nbytes,
                                          dst_machine=dst_machine, then=then)
        else:
            yield self.env.timeout(
                params.transfer_time(nbytes, params.RDMA_BANDWIDTH))
            yield self.env.timeout(then)
