"""Function chains: transparent data sharing through multi-hop fork.

Models an image-processing pipeline of three dependent functions (the
Fig. 8 scenario): each stage runs on a different machine, is forked from
its predecessor, and reads its predecessors' intermediate results straight
out of inherited memory — func2 pulls data[1] from func1's machine and
data[0] from func0's machine, routed by the owner bits in its PTEs.

Run:  python examples/function_chain.py
"""

from repro import params
from repro.fn import DagScheduler, FnCluster, MitosisPolicy
from repro.workloads import tc0_profile


def main():
    fn = FnCluster(MitosisPolicy(), num_invokers=3, num_machines=6,
                   num_dfs_osds=2, seed=7)
    scheduler = DagScheduler(fn)
    profile = tc0_profile()

    def stage_writer(container, hop):
        """Each stage leaves its result in a global variable."""
        vpn = scheduler.heap_vpn(container, offset=100 + hop)
        yield from container.kernel.write_page(
            container.task, vpn, "stage-%d-result" % hop)
        print("  stage %d wrote its result on m%d"
              % (hop, container.machine.machine_id))

    def scenario():
        yield from fn.register(profile)
        print("running a 3-stage chain across invokers 0 -> 1 -> 2 ...")
        result = yield from scheduler.run_chain(
            [profile, profile, profile], [0, 1, 2],
            payload_vpn_writer=stage_writer)
        for hop, latency in enumerate(result.hop_latencies):
            print("  hop %d finished in %.1f ms" % (hop, latency / params.MS))

        # The last stage transparently reads both predecessors' results.
        last = result.last_container
        print("\nfinal stage (m%d) reads its ancestors' results:"
              % last.machine.machine_id)
        for hop in range(2):
            vpn = scheduler.heap_vpn(last, offset=100 + hop)
            # The owner bits index the lineage: 0 = parent, 1 = grandparent.
            owner = last.task.address_space.page_table.entry(vpn).owner_index
            elder, _ = last.task.predecessors[owner]
            start = fn.env.now
            content = yield from last.kernel.touch(last.task, vpn)
            print("  read %r in %.1f us from m%d (PTE owner index %d)"
                  % (content, fn.env.now - start, elder.machine_id, owner))

        node2 = fn.deployment.node(fn.invokers[2].machine)
        print("\npager counters on the final machine: %s"
              % node2.pager.counters.as_dict())

        # The DAG is done: tear down and GC the temporary descriptors.
        yield from scheduler.finish_chain(result)
        print("chain finished; temporary descriptors garbage-collected")

    fn.env.run(fn.env.process(scenario()))


if __name__ == "__main__":
    main()
