"""Fig. 14 — transparent data sharing and multi-hop fork.

(a) Passing an intermediate result of S bytes from a producer to a
consumer on another machine: MITOSIS (write a global variable, remote-fork
the consumer, read on access) vs Fn Flow (TCP relay; piggybacks <100 KB)
vs CRIU-remote (checkpoint the whole image, copy, restore).  The paper's
deltas: MITOSIS 26-66% faster than Flow above 100 KB, 38-80% faster than
CRIU-remote (2.8 ms descriptor dump vs 17.24 ms checkpoint).

(b) Forking a TC0 container sequentially across machines: latency grows
linearly with hops for both; MITOSIS finishes a hop 87.74% faster because
it never materializes an image nor touches a DFS.
"""

from .. import params
from ..criu import RcopySource, TmpfsStore, checkpoint, restore
from ..fn import FlowService
from ..kernel import VmaKind
from ..workloads import tc0_profile
from .report import ExperimentReport, ms
from .rigs import PrimitiveRig

PAYLOAD_SIZES = (1 * params.KB, 10 * params.KB, 100 * params.KB,
                 params.MB, 10 * params.MB)


def _write_payload(kernel, container, payload_bytes):
    """Store a payload in a global variable; returns the written vpns.

    Modelled as a fresh anonymous mapping (a big global buffer) so payload
    size is independent of the function's heap layout.
    """
    pages = params.pages_of(payload_bytes)
    space = container.task.address_space
    buffer_vma = space.add_vma(pages, VmaKind.ANON)
    vpns = list(buffer_vma.vpns())
    for i, vpn in enumerate(vpns):
        yield from kernel.write_page(container.task, vpn, "payload-%d" % i)
    return vpns


def run_data_share(payload_sizes=PAYLOAD_SIZES, seed=0):
    """Fig. 14 (a): receive latency per payload size and mechanism."""
    report = ExperimentReport(
        "fig14a", "Data sharing latency between dependent functions",
        notes="descriptors/images are NOT pre-prepared (matches §6.3)")
    profile = tc0_profile()

    for payload in payload_sizes:
        # MITOSIS: prepare at sender + remote fork + read payload pages.
        rig = PrimitiveRig(num_machines=3, num_dfs_osds=1, seed=seed)
        env = rig.env

        def mitosis_path():
            sender = yield from rig.runtime(0).cold_start(profile.image)
            vpns = yield from _write_payload(rig.kernel(0), sender, payload)
            start = env.now
            meta = yield from rig.node(0).fork_prepare(sender)
            receiver = yield from rig.node(1).fork_resume(meta)
            for vpn in vpns:
                yield from rig.kernel(1).touch(receiver.task, vpn)
            return env.now - start

        mitosis_us = rig.run(mitosis_path())

        # CRIU-remote (rcopy): checkpoint whole image + copy + restore.
        rig2 = PrimitiveRig(num_machines=3, num_dfs_osds=1, seed=seed)
        env2 = rig2.env

        def criu_path():
            sender = yield from rig2.runtime(0).cold_start(profile.image)
            vpns = yield from _write_payload(rig2.kernel(0), sender, payload)
            store = TmpfsStore(rig2.machine(0))
            start = env2.now
            image = yield from checkpoint(env2, sender, "share")
            store.put(image)
            source = RcopySource(env2, rig2.fabric, store, rig2.machine(1))
            receiver = yield from restore(env2, rig2.runtime(1), source,
                                          "share", lazy=True)
            for vpn in vpns:
                yield from rig2.kernel(1).touch(receiver.task, vpn)
            return env2.now - start

        criu_us = rig2.run(criu_path())

        # Fn Flow: relay the payload through the flow service.
        env3 = PrimitiveRig(num_machines=2, num_dfs_osds=1).env
        flow = FlowService(env3)

        def flow_path():
            return (yield from flow.transfer(payload))

        flow_us = env3.run(env3.process(flow_path()))

        report.add(payload_kb=payload / params.KB,
                   mitosis_ms=ms(mitosis_us),
                   flow_ms=ms(flow_us),
                   criu_remote_ms=ms(criu_us),
                   vs_flow=1 - mitosis_us / flow_us,
                   vs_criu=1 - mitosis_us / criu_us)
    return report


def run_multihop(max_hops=6, seed=0):
    """Fig. 14 (b): cumulative fork latency across sequential hops."""
    report = ExperimentReport(
        "fig14b", "Multi-hop fork latency (TC0 chained across machines)",
        notes="paper: MITOSIS finishes one hop 87.74% faster than "
              "CRIU-remote")
    profile = tc0_profile()

    # MITOSIS chain.
    rig = PrimitiveRig(num_machines=max_hops + 2, num_dfs_osds=1, seed=seed)
    env = rig.env

    def mitosis_chain():
        container = yield from rig.runtime(0).cold_start(profile.image)
        cumulative = []
        start = env.now
        for hop in range(max_hops):
            meta = yield from rig.node(hop).fork_prepare(container)
            container = yield from rig.node(hop + 1).fork_resume(meta)
            cumulative.append(env.now - start)
        return cumulative

    mitosis_cumulative = rig.run(mitosis_chain())

    # CRIU-remote (rcopy) chain.
    rig2 = PrimitiveRig(num_machines=max_hops + 2, num_dfs_osds=1, seed=seed)
    env2 = rig2.env

    def criu_chain():
        container = yield from rig2.runtime(0).cold_start(profile.image)
        cumulative = []
        start = env2.now
        for hop in range(max_hops):
            store = TmpfsStore(rig2.machine(hop))
            image = yield from checkpoint(env2, container, "hop%d" % hop)
            store.put(image)
            source = RcopySource(env2, rig2.fabric, store,
                                 rig2.machine(hop + 1))
            container = yield from restore(
                env2, rig2.runtime(hop + 1), source, "hop%d" % hop,
                lazy=True)
            cumulative.append(env2.now - start)
        return cumulative

    criu_cumulative = rig2.run(criu_chain())

    for hop in range(max_hops):
        m = mitosis_cumulative[hop]
        c = criu_cumulative[hop]
        m_delta = m - (mitosis_cumulative[hop - 1] if hop else 0.0)
        c_delta = c - (criu_cumulative[hop - 1] if hop else 0.0)
        report.add(hops=hop + 1,
                   mitosis_cumulative_ms=ms(m),
                   criu_cumulative_ms=ms(c),
                   mitosis_hop_ms=ms(m_delta),
                   criu_hop_ms=ms(c_delta),
                   hop_speedup=1 - m_delta / c_delta)
    return report
