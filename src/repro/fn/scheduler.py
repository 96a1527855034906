"""DAG scheduler: remote-fork-based function composition (§5, §4.4).

For applications expressed as DAGs the extended load balancer forks the
target node's function from the source when the target has exactly one
in-edge, so intermediate results flow through inherited memory instead of
an external store; nodes with several in-edges fall back to the flow
service for all but the forked lineage.  Non-seed descriptors created
this way are garbage collected when the DAG finishes.
"""

from ..kernel import VmaKind
from ..workloads import execute
from .flow import FlowService


class ChainResult:
    """Measurements from one function-chain run.

    Holds the chain's containers and the temporary (non-seed) descriptors
    until :meth:`DagScheduler.finish_chain` garbage-collects them — a
    descriptor must outlive every descendant that may still pull pages
    through it (§5: GC happens after the DAG finishes).
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


class Dag:
    """A function DAG: nodes carry profiles, edges carry data deps."""

    def __init__(self):
        self._profiles = {}
        self._edges = {}      # src -> [dst]
        self._parents = {}    # dst -> [src]
        self.output_bytes = {}

    def add_node(self, name, profile, output_bytes=0):
        """Add a function node; returns self for chaining."""
        if name in self._profiles:
            raise ValueError("node %r already exists" % (name,))
        self._profiles[name] = profile
        self._edges[name] = []
        self._parents[name] = []
        self.output_bytes[name] = output_bytes
        return self

    def add_edge(self, src, dst):
        """Add a data dependency src -> dst; returns self."""
        for node in (src, dst):
            if node not in self._profiles:
                raise ValueError("unknown node %r" % (node,))
        self._edges[src].append(dst)
        self._parents[dst].append(src)
        return self

    def profile(self, name):
        """The profile registered for ``name``."""
        return self._profiles[name]

    def parents(self, name):
        """Direct predecessors of ``name``."""
        return list(self._parents[name])

    def topological_order(self):
        """Nodes in dependency order; raises on cycles."""
        in_degree = {n: len(p) for n, p in self._parents.items()}
        ready = sorted(n for n, d in in_degree.items() if d == 0)
        order = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for succ in self._edges[node]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._profiles):
            raise ValueError("DAG has a cycle")
        return order

    def __len__(self):
        return len(self._profiles)


class DagResult:
    """Per-node outcomes of one DAG run."""

    def __init__(self):
        self.node_latencies = {}
        self.start_kinds = {}      # node -> 'forked' | 'fresh'
        self.flow_transfers = 0
        self.containers = {}
        self.pending_gc = []

    @property
    def makespan(self):
        """Sum of all node latencies."""
        return sum(self.node_latencies.values())


class DagScheduler:
    """Runs chains and general DAGs with multi-hop fork."""

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
        """The DAG is done: tear down its containers, then GC the
        temporary (non-seed) descriptors (§5).  Generator."""
        containers = (result.containers.values()
                      if isinstance(result.containers, dict)
                      else result.containers)
        for container in containers:
            invoker = self.fn.invoker_for_machine(container.machine)
            invoker.destroy(container)
        for node, meta in result.pending_gc:
            node.retire_descriptor(meta)
        result.containers = {} if isinstance(result.containers, dict) else []
        result.pending_gc = []
        yield self.env.timeout(0)

    # ``finish_dag`` is the same teardown with DAG-shaped results.
    finish_dag = finish_chain

    def run_dag(self, dag, placement, flow=None):
        """Execute a :class:`Dag`.  Generator returning a :class:`DagResult`.

        ``placement`` maps node name -> invoker index.  A node with exactly
        one in-edge is *forked* from its source's container (§5), so it
        inherits the source's results in memory; any additional inputs
        (multi-in-degree nodes) are transferred through the flow service.
        """
        flow = flow or FlowService(self.env)
        result = DagResult()
        for name in dag.topological_order():
            if name not in placement:
                raise ValueError("no placement for node %r" % (name,))
            invoker = self.fn.invokers[placement[name]]
            node = self.fn.deployment.node(invoker.machine)
            profile = dag.profile(name)
            parents = dag.parents(name)
            start = self.env.now

            forked_from = None
            if len(parents) == 1 and parents[0] in result.containers:
                forked_from = parents[0]
            if forked_from is not None:
                source = result.containers[forked_from]
                source_node = self.fn.deployment.node(source.machine)
                meta = yield from source_node.fork_prepare(source)
                result.pending_gc.append((source_node, meta))
                container = yield from node.fork_resume(meta)
                result.start_kinds[name] = "forked"
            else:
                container = yield from invoker.runtime.cold_start(
                    profile.image)
                result.start_kinds[name] = "fresh"
                # Non-lineage inputs arrive through the flow service.
                for parent in parents:
                    yield from flow.transfer(dag.output_bytes[parent])
                    result.flow_transfers += 1
            invoker.track(container)
            result.containers[name] = container
            exec_result = yield from execute(self.env, container, profile)
            result.node_latencies[name] = self.env.now - start
        return result

    def heap_vpn(self, container, offset=0):
        """A heap page address usable for payload writes."""
        for vma in container.task.address_space.vmas:
            if vma.kind == VmaKind.HEAP:
                return vma.start_vpn + offset
        raise ValueError("no heap VMA in %r" % (container,))
