"""Fig. 15 — FunctionBench end-to-end latency and the factor analysis.

(a) Per-application end-to-end (start + execution) latency normalized to
CRIU-tmpfs.  Paper: MITOSIS-remote costs at most 1.2x (chameleon, 2,303
remote pages) and typically 1.01-1.05x; MITOSIS-shared is 4-29% *faster*
than CRIU-tmpfs; MITOSIS-remote beats CRIU-remote by 25-82%.

(b) Factor analysis of the design choices: the base design (per-child RC
connections) peaks at ~700 forks/s, bottlenecked by RCQP creation at the
seed's NIC; +DCT removes that wall; +page-sharing adds ~1.1x more.
"""

from .. import params
from ..criu import DfsSource, LocalTmpfsSource, TmpfsStore, checkpoint, restore
from ..fn import FnCluster, MitosisPolicy
from ..workloads import execute, functionbench, tc0_profile
from .report import ExperimentReport, ms
from .rigs import PrimitiveRig


def run_functionbench(profiles=None, seed=0):
    """Fig. 15 (a): normalized end-to-end latency per application."""
    profiles = profiles or functionbench.suite()
    report = ExperimentReport(
        "fig15a", "FunctionBench execution latency (normalized to "
                  "CRIU-tmpfs)",
        notes="execution latency on a freshly started container: with "
              "on-demand restore, page-fetch costs land here (the paper's "
              "basis — MITOSIS-remote pays RDMA per page, CRIU-tmpfs "
              "reads local tmpfs, CRIU-remote drags the DFS)")
    for profile in profiles:
        latencies = {}
        # CRIU-tmpfs / CRIU-remote / MITOSIS-remote on a sharing-off rig.
        rig = PrimitiveRig(num_machines=6, num_dfs_osds=1, seed=seed,
                           enable_sharing=False)
        env = rig.env

        def measure_criu_and_remote():
            parent = yield from rig.runtime(0).cold_start(profile.image)
            image = yield from checkpoint(env, parent, profile.name)
            store = TmpfsStore(rig.machine(1))
            store.put(image)
            yield from rig.dfs.put(rig.machine(0), profile.name,
                                   image.total_bytes, payload=image)
            meta = yield from rig.node(0).fork_prepare(parent)

            c = yield from restore(
                env, rig.runtime(1),
                LocalTmpfsSource(env, store, rig.machine(1)),
                profile.name, lazy=True)
            result = yield from execute(env, c, profile)
            latencies["criu-tmpfs"] = result.latency

            c = yield from restore(
                env, rig.runtime(2), DfsSource(env, rig.dfs, rig.machine(2)),
                profile.name, lazy=True)
            result = yield from execute(env, c, profile)
            latencies["criu-remote"] = result.latency

            c = yield from rig.node(3).fork_resume(meta)
            result = yield from execute(env, c, profile)
            latencies["mitosis-remote"] = result.latency

        rig.run(measure_criu_and_remote())

        # MITOSIS-shared: second child on a machine that already pulled.
        rig2 = PrimitiveRig(num_machines=4, num_dfs_osds=1, seed=seed,
                            enable_sharing=True)
        env2 = rig2.env

        def measure_shared():
            parent = yield from rig2.runtime(0).cold_start(profile.image)
            meta = yield from rig2.node(0).fork_prepare(parent)
            first = yield from rig2.node(1).fork_resume(meta)
            yield from execute(env2, first, profile)  # warms the cache
            second = yield from rig2.node(1).fork_resume(meta)
            result = yield from execute(env2, second, profile)
            latencies["mitosis-shared"] = result.latency

        rig2.run(measure_shared())

        base = latencies["criu-tmpfs"]
        report.add(
            application=profile.name,
            criu_tmpfs_ms=ms(base),
            criu_remote_norm=latencies["criu-remote"] / base,
            mitosis_remote_norm=latencies["mitosis-remote"] / base,
            mitosis_shared_norm=latencies["mitosis-shared"] / base,
            vs_criu_remote=1 - latencies["mitosis-remote"]
                               / latencies["criu-remote"],
        )
    return report


def run_factor_analysis(num_invokers=4, requests_per_invoker=50, seed=0,
                        profile=None):
    """Fig. 15 (b): peak fork throughput base -> +DCT -> +page sharing.

    With the default hello-world profile the parent's NIC egress is not
    saturated at bench scale, so page sharing shows up as the collapse in
    remote page reads (the mechanism) rather than extra throughput; pass a
    page-heavy profile (e.g. ``functionbench.chameleon()``) to see the
    throughput effect too.
    """
    report = ExperimentReport(
        "fig15b", "Factor analysis of MITOSIS design choices",
        notes="paper: base (RC connections) peaks at ~700 forks/s; "
              "sharing adds ~1.1x at full scale")
    configs = [
        ("base (RC conns)", dict(transport="rc", enable_sharing=False)),
        ("+DCT", dict(transport="dct", enable_sharing=False)),
        ("+page sharing", dict(transport="dct", enable_sharing=True)),
    ]
    profile = profile or tc0_profile()
    for label, overrides in configs:
        fn = FnCluster(MitosisPolicy(), num_invokers=num_invokers,
                       num_machines=num_invokers + 3, num_dfs_osds=2,
                       seed=seed, **overrides)

        def setup():
            yield from fn.register(profile)

        fn.env.run(fn.env.process(setup()))
        total = requests_per_invoker * num_invokers
        start = fn.env.now
        procs = [fn.submit(profile.name) for _ in range(total)]
        for proc in procs:
            fn.env.run(proc)
        makespan = fn.env.now - start
        rdma_reads = sum(node.pager.counters["rdma_reads"]
                         for node in fn.deployment.nodes())
        rc_reads = sum(node.machine.nic.counters["rc_read"]
                       for node in fn.deployment.nodes())
        shared_hits = sum(node.pager.counters["shared_hits"]
                          for node in fn.deployment.nodes())
        report.add(design=label,
                   throughput_per_sec=total / (makespan / params.SEC),
                   remote_page_reads=rdma_reads + rc_reads,
                   shared_cache_hits=shared_hits)
    return report
