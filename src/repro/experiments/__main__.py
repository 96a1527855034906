"""Run every experiment and print the paper-style report tables.

Usage::

    python -m repro.experiments            # all experiments, bench scale
    python -m repro.experiments fig10 fig12  # just these
    python -m repro.experiments --heavy    # larger (slower) replays
    python -m repro.experiments grayfaults --smoke  # CI-sized brownout
"""

import sys
import time

from . import ablations, analytic, connscale, faults, fig1, fig2, fig10, fig11, fig12, fig13, fig14, fig15, grayfaults, incast, table1, tracecli, validate
from . import plots
from .report import ms


def _fig12_with_curves(scale):
    report, runs = fig12.run(scale=scale)
    print(report.table())
    print()
    for method, run_ in runs.items():
        timeline = fig12.latency_timeline(run_)
        print("%-12s latency over time   %s" % (
            method, plots.sparkline([v for _, v in timeline])))
        memory = [v for _, v in fig12.memory_timeline(run_)]
        print("%-12s memory  over time   %s" % (
            method, plots.sparkline(memory)))
    return []


def _fig13_with_curves(scale):
    report, cdfs = fig13.run(scale=scale)
    print(report.table())
    print()
    for function in ("TC0", "TC1"):
        curves = {m: [(ms(x), f) for x, f in curve]
                  for (fname, m), curve in cdfs.items() if fname == function}
        if curves:
            print("%s latency CDFs (ms):" % function)
            print(plots.cdf_grid(curves))
            print()
    return []


def _registry(heavy, smoke=False):
    spike_scale = 0.05 if heavy else 0.02
    counts = (1, 2, 4, 6) if heavy else (1, 2, 4)
    return {
        "fig1": lambda: [fig1.run()],
        "table1": lambda: [table1.run()],
        "fig2": lambda: [fig2.run()],
        "fig10": lambda: [
            fig10.run_scaling(invoker_counts=counts),
            fig10.run_throughput_latency(num_invokers=2,
                                         load_fractions=(0.4, 0.8),
                                         methods=("mitosis", "criu-tmpfs")),
        ],
        "fig11": lambda: [fig11.run_start_time(), fig11.run_memory()],
        "fig12": lambda: _fig12_with_curves(spike_scale),
        "fig13": lambda: _fig13_with_curves(spike_scale * 0.75),
        "fig14": lambda: [fig14.run_data_share(), fig14.run_multihop()],
        "fig15": lambda: [fig15.run_functionbench(),
                          fig15.run_factor_analysis()],
        "faults": lambda: [faults.run(scale=spike_scale)[0]],
        "seedkill": lambda: [faults.run_seed_kill(smoke=smoke)[0]],
        "grayfaults": lambda: [grayfaults.run(scale=spike_scale,
                                              smoke=smoke)[0]],
        "incast": lambda: [incast.run(scale=spike_scale, smoke=smoke)[0]],
        "connscale": lambda: [connscale.run(
            invoker_counts=(1, 2, 4, 8) if heavy else (2, 4, 8),
            smoke=smoke)[0]],
        "trace": lambda: [tracecli.run(smoke=smoke)],
        "validate": lambda: [validate.run()],
        "analytic": lambda: [analytic.run()],
        "ablations": lambda: [ablations.run_memory_control(),
                              ablations.run_reclaim_models(),
                              ablations.run_descriptor_fetch(),
                              ablations.run_prefetch_extension()],
    }


def main(argv):
    heavy = "--heavy" in argv
    smoke = "--smoke" in argv
    wanted = [a for a in argv if not a.startswith("-")]
    registry = _registry(heavy, smoke=smoke)
    names = wanted or list(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        print("unknown experiments: %s (choose from %s)"
              % (", ".join(unknown), ", ".join(registry)))
        return 1
    for name in names:
        # CLI progress timing of the *host* run; never simulation state.
        start = time.time()  # reprolint: disable=no-wallclock-or-global-random
        reports = registry[name]()
        for report in reports:
            print(report.table())
            print()
        elapsed = time.time() - start  # reprolint: disable=no-wallclock-or-global-random
        print("[%s finished in %.1fs]\n" % (name, elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
