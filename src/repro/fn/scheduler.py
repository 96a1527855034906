"""Chain scheduler: remote-fork-based function composition (§5, §4.4).

For a chain of functions the extended load balancer forks each hop from
its predecessor's container, so intermediate results flow through
inherited memory instead of an external store.  Non-seed descriptors
created this way are garbage collected when the chain finishes.
"""

from ..kernel import VmaKind
from ..workloads import execute


class ChainResult:
    """Measurements from one function-chain run.

    Holds the chain's containers and the temporary (non-seed) descriptors
    until :meth:`DagScheduler.finish_chain` garbage-collects them — a
    descriptor must outlive every descendant that may still pull pages
    through it (§5: GC happens after the chain finishes).
    """

    def __init__(self):
        self.hop_latencies = []
        self.records = []
        self.containers = []
        self.pending_gc = []

    @property
    def last_container(self):
        """The final hop's container (still live until finish_chain)."""
        if not self.containers:
            raise ValueError("chain has not run")
        return self.containers[-1]


class DagScheduler:
    """Runs function chains with multi-hop fork."""

    def __init__(self, fn_cluster):
        self.fn = fn_cluster
        self.env = fn_cluster.env

    def run_chain(self, profiles, invoker_indices, payload_vpn_writer=None):
        """Execute ``profiles[i]`` on ``invokers[indices[i]]``, each forked
        from its predecessor.  Generator returning a :class:`ChainResult`.

        ``payload_vpn_writer(container, hop)`` optionally writes hop-local
        results into memory so descendants can read them transparently.
        """
        if len(profiles) != len(invoker_indices):
            raise ValueError("need one invoker per chain node")
        result = ChainResult()
        container = None
        prev_node = None
        for hop, (profile, index) in enumerate(zip(profiles, invoker_indices)):
            invoker = self.fn.invokers[index]
            node = self.fn.deployment.node(invoker.machine)
            start = self.env.now
            if container is None:
                container = yield from invoker.runtime.cold_start(
                    profile.image)
            else:
                meta = yield from prev_node.fork_prepare(container)
                result.pending_gc.append((prev_node, meta))
                container = yield from node.fork_resume(meta)
            invoker.track(container)
            result.containers.append(container)
            exec_result = yield from execute(self.env, container, profile)
            if payload_vpn_writer is not None:
                yield from payload_vpn_writer(container, hop)
            result.hop_latencies.append(self.env.now - start)
            result.records.append(exec_result)
            prev_node = node
        return result

    def finish_chain(self, result):
        """The chain is done: tear down its containers, then GC the
        temporary (non-seed) descriptors (§5).  Generator."""
        for container in result.containers:
            invoker = self.fn.invoker_for_machine(container.machine)
            invoker.destroy(container)
        for node, meta in result.pending_gc:
            node.retire_descriptor(meta)
        result.containers = []
        result.pending_gc = []
        yield self.env.timeout(0)

    def heap_vpn(self, container, offset=0):
        """A heap page address usable for payload writes."""
        for vma in container.task.address_space.vmas:
            if vma.kind == VmaKind.HEAP:
                return vma.start_vpn + offset
        raise ValueError("no heap VMA in %r" % (container,))
