"""Wall-clock benchmark harness: times representative rigs, emits BENCH_perf.json.

Unlike ``benchmarks/test_*.py`` (pytest-benchmark suites over *simulated*
results), this harness measures the simulator itself: host wall seconds,
events processed, events/sec, and peak RSS for three representative rigs —

* ``fig1_smoke``         — pure trace analysis (no event loop): parser and
  numeric throughput.
* ``fork10k_unbatched`` / ``fork10k_batched`` — the 10K-fork batch start
  (Fig. 11's regime: one warm seed, N concurrent fork_resume + working-set
  paging).  Run twice in the same process, with the pager's doorbell
  batching off and on, so the batched/unbatched wall-clock ratio is
  measured on identical hardware in a single run.
* ``fork10k_tracing_off`` — the unbatched fork rig with a tracer
  installed but *disabled*: the worst-case untraced path, gating the
  zero-cost-when-off promise of ``repro.trace`` (<2% overhead, measured
  as the median over tightly interleaved A/B pairs — see
  :func:`measure_tracing_overhead`).
* ``fork10k_rc`` / ``fork10k_connplane`` — the batched fork rig over RC
  transport, where every fork connects back to the seed: unpooled it
  serializes on the ~700/s QP factories, with the connection plane
  (``repro.connplane``) armed the storm hits warm pooled QPs instead.
  ``connplane_makespan_reduction_pct`` (their *simulated* makespan
  contrast) gates the plane's ≥15% win in CI.
* ``fork10k_shard4``     — the unbatched fork rig partitioned across
  ``REPRO_SHARDS`` (default 4) worker processes (``repro.shard``).  Its
  ``shard_speedup`` is the aggregate events/s-per-core gain over the
  single-core rig on a *CPU-time* basis — ``events / max worker cpu``
  against ``events / cpu`` — which is what parallel hardware realises
  and, like the calibration normalization, does not depend on how many
  cores the runner actually has.  ``shard_wall_speedup`` (single-core
  wall over sharded wall) records what this runner's cores delivered.
* ``grayfaults_smoke``   — the CI-sized brownout replay: fault injectors,
  hedged reads, breakers, deadline shedding.

Usage::

    PYTHONPATH=src python benchmarks/perf/harness.py [--smoke] [--out BENCH_perf.json]

``--smoke`` shrinks the fork rig for quick local iteration; CI runs the
full 10K.  Compare against the checked-in baseline with
``benchmarks/perf/compare.py``.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"))

from repro import params  # noqa: E402
from repro.experiments import fig1, grayfaults  # noqa: E402
from repro.fn import FnCluster, MitosisPolicy  # noqa: E402
from repro.shard import default_shards, run_sharded  # noqa: E402
from repro.trace import Tracer  # noqa: E402
from repro.workloads import tc0_profile  # noqa: E402

#: Pages per doorbelled range for the batched fork rig.
BATCH_PAGES = 8

#: Back-to-back A/B pairs for the tracing-off overhead estimate.
TRACE_OVERHEAD_PAIRS = 10


def _peak_rss_kb():
    """Process-wide peak RSS in KB (monotonic high-water, see README)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def calibrate(iterations=2_000_000):
    """Seconds for a fixed pure-Python busy loop.

    A crude host-speed probe: compare.py divides baseline calibration by
    the current run's to normalize wall times across machines, so the
    regression gate tracks the *code*, not the runner the job landed on.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i % 7
    if acc < 0:  # pragma: no cover - keeps the loop from being elided
        raise AssertionError
    return time.perf_counter() - start


def _timed(fn):
    """Run ``fn`` -> (result, wall_seconds, cpu_seconds)."""
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    result = fn()
    return result, time.perf_counter() - wall0, time.process_time() - cpu0


def run_fig1_smoke():
    """Pure trace analysis; exercises no simulation events."""
    _, wall, cpu = _timed(fig1.run)
    return {"wall_s": wall, "cpu_s": cpu, "events": 0, "events_per_s": None,
            "peak_rss_kb": _peak_rss_kb()}


def run_fork_batch_start(num_forks, batch_pages, tracing="none",
                         connplane=False, transport="dct"):
    """The 10K-fork batch start: submit ``num_forks`` invocations of a
    registered TC0 function against a MITOSIS FnCluster and drain them.

    ``tracing="off-installed"`` installs a *disabled* tracer first — the
    worst-case untraced path (every guard does the full attribute test
    against a real object) that the <2%-overhead gate times.
    ``connplane`` arms the connection control plane (warm QP pools +
    descriptor adverts), and ``transport="rc"`` makes every fork connect
    back to the seed with an RC QP — the connection-bound regime the
    ``fork10k_rc`` / ``fork10k_connplane`` pair contrasts.
    """
    fn = FnCluster(MitosisPolicy(), num_invokers=8, num_machines=11,
                   num_dfs_osds=2, seed=0, batch_pages=batch_pages,
                   transport=transport)
    if connplane:
        fn.enable_connplane()
    if tracing == "off-installed":
        Tracer(fn.env, enabled=False)
    profile = tc0_profile()

    def setup():
        yield from fn.register(profile)

    fn.env.run(fn.env.process(setup()))
    sim_start = fn.env.now

    def burst():
        procs = [fn.submit(profile.name) for _ in range(num_forks)]
        for proc in procs:
            fn.env.run(proc)

    _, wall, cpu = _timed(burst)
    events = fn.env.events_processed
    pager_batched = sum(node.pager.counters["batched_reads"]
                        for node in fn.deployment.nodes())
    return {"wall_s": wall, "cpu_s": cpu, "events": events,
            "events_per_s": events / wall if wall > 0 else None,
            "events_per_s_per_core": events / cpu if cpu > 0 else None,
            "workers": 1,
            "peak_rss_kb": _peak_rss_kb(),
            "sim_makespan_ms": (fn.env.now - sim_start) / params.MS,
            "forks": num_forks, "batch_pages": batch_pages,
            "batched_reads": pager_batched}


def run_fork_sharded(num_forks, workers):
    """The unbatched fork rig partitioned across shard worker processes.

    Delegates to :func:`repro.shard.run_sharded` (partitioned replicas,
    pick-digest guarded); the per-core rate divides aggregate events by
    the *slowest worker's* CPU seconds — the critical path a parallel
    host would wait on.
    """
    result, wall, _cpu = _timed(lambda: run_sharded(num_forks, workers))
    events = result["events"]
    critical = result["max_worker_cpu_s"]
    return {"wall_s": wall, "cpu_s": result["cpu_s"], "events": events,
            "events_per_s": events / wall if wall > 0 else None,
            "events_per_s_per_core": (events / critical
                                      if critical > 0 else None),
            "workers": workers,
            "max_worker_cpu_s": critical,
            "peak_rss_kb": _peak_rss_kb(),
            "sim_makespan_ms": result["sim_makespan"] / params.MS,
            "forks": num_forks, "batch_pages": 0}


def measure_tracing_overhead(num_forks, pairs=TRACE_OVERHEAD_PAIRS):
    """Median paired CPU-time overhead of an installed-but-disabled tracer.

    Shared runners drift 10–30% over tens of seconds — far above the
    single-digit effect being measured — so single A/B runs (and even
    best-of-N) are useless.  Instead: ``pairs`` back-to-back A/B pairs,
    each pair tight enough that drift within it is negligible, reduced
    by the *median* of the per-pair relative differences (robust to the
    odd preempted run).  CPU seconds rather than wall ignores scheduler
    preemption; the sim is single-threaded, so the two agree when the
    host is quiet.  Percentage overhead is scale-free (the guard cost is
    per event), so the pairs may run fewer forks than the headline rig.

    Returns ``(median_pct, sorted_diffs_pct)``.
    """
    diffs = []
    for _ in range(pairs):
        base = run_fork_batch_start(num_forks, 0)["cpu_s"]
        off = run_fork_batch_start(num_forks, 0,
                                   tracing="off-installed")["cpu_s"]
        diffs.append(100.0 * (off - base) / base if base > 0 else 0.0)
    diffs.sort()
    mid = len(diffs) // 2
    median = diffs[mid] if len(diffs) % 2 else (diffs[mid - 1]
                                                + diffs[mid]) / 2.0
    return median, diffs


def run_grayfaults_smoke():
    """CI-sized brownout replay (faults + resilience layers)."""
    (_, runs), wall, cpu = _timed(lambda: grayfaults.run(smoke=True))
    events = sum(fn.env.events_processed for fn, _, _ in runs.values())
    return {"wall_s": wall, "cpu_s": cpu, "events": events,
            "events_per_s": events / wall if wall > 0 else None,
            "events_per_s_per_core": events / cpu if cpu > 0 else None,
            "workers": 1,
            "peak_rss_kb": _peak_rss_kb()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_perf.json",
                        help="output path (default: ./BENCH_perf.json)")
    parser.add_argument("--forks", type=int, default=10_000,
                        help="forks for the batch-start rig (default 10000)")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the fork rig to 1000 for local runs")
    args = parser.parse_args(argv)
    num_forks = 1000 if args.smoke else args.forks

    calibration_s = calibrate()
    rigs = {}
    print("[perf] fig1_smoke ...", flush=True)
    rigs["fig1_smoke"] = run_fig1_smoke()
    print("[perf] fork%d_unbatched ..." % num_forks, flush=True)
    rigs["fork10k_unbatched"] = run_fork_batch_start(num_forks, 0)
    print("[perf] fork%d_tracing_off (tracer installed, disabled) ..."
          % num_forks, flush=True)
    rigs["fork10k_tracing_off"] = run_fork_batch_start(
        num_forks, 0, tracing="off-installed")
    pair_forks = max(200, num_forks // 10)
    print("[perf] tracing-off overhead (%d pairs of %d forks) ..."
          % (TRACE_OVERHEAD_PAIRS, pair_forks), flush=True)
    overhead_pct, pair_diffs = measure_tracing_overhead(pair_forks)
    print("[perf] fork%d_batched (batch_pages=%d) ..."
          % (num_forks, BATCH_PAGES), flush=True)
    rigs["fork10k_batched"] = run_fork_batch_start(num_forks, BATCH_PAGES)
    print("[perf] fork%d_rc (RC transport, per-fork connects) ..."
          % num_forks, flush=True)
    rigs["fork10k_rc"] = run_fork_batch_start(
        num_forks, BATCH_PAGES, transport="rc")
    print("[perf] fork%d_connplane (RC transport, connection plane) ..."
          % num_forks, flush=True)
    rigs["fork10k_connplane"] = run_fork_batch_start(
        num_forks, BATCH_PAGES, connplane=True, transport="rc")
    shard_workers = default_shards() or 4
    print("[perf] fork%d_shard%d (%d shard processes) ..."
          % (num_forks, shard_workers, shard_workers), flush=True)
    rigs["fork10k_shard4"] = run_fork_sharded(num_forks, shard_workers)
    print("[perf] grayfaults_smoke ...", flush=True)
    rigs["grayfaults_smoke"] = run_grayfaults_smoke()

    unbatched = rigs["fork10k_unbatched"]["wall_s"]
    batched = rigs["fork10k_batched"]["wall_s"]
    rigs["fork10k_batched"]["wall_reduction_pct"] = (
        100.0 * (unbatched - batched) / unbatched if unbatched > 0 else 0.0)
    # The headline connplane win: same RC fork storm, plane off vs on.
    # (The DCT ``fork10k_batched`` rig pays no per-fork connects at all,
    # so it doubles as the floor the pooled RC rig should land near.)
    rc_sim = rigs["fork10k_rc"]["sim_makespan_ms"]
    plane_sim = rigs["fork10k_connplane"]["sim_makespan_ms"]
    rigs["fork10k_connplane"]["connplane_makespan_reduction_pct"] = (
        100.0 * (rc_sim - plane_sim) / rc_sim if rc_sim > 0 else 0.0)
    rigs["fork10k_tracing_off"]["tracing_off_overhead_pct"] = overhead_pct
    rigs["fork10k_tracing_off"]["overhead_pair_forks"] = pair_forks
    rigs["fork10k_tracing_off"]["overhead_pair_diffs_pct"] = pair_diffs
    base_per_core = rigs["fork10k_unbatched"]["events_per_s_per_core"]
    shard_per_core = rigs["fork10k_shard4"]["events_per_s_per_core"]
    rigs["fork10k_shard4"]["shard_speedup"] = (
        shard_per_core / base_per_core
        if base_per_core and shard_per_core else 0.0)
    shard_wall = rigs["fork10k_shard4"]["wall_s"]
    rigs["fork10k_shard4"]["shard_wall_speedup"] = (
        rigs["fork10k_unbatched"]["wall_s"] / shard_wall
        if shard_wall > 0 else 0.0)

    payload = {
        "version": 1,
        "schema": "BENCH_perf",
        "host": {
            "python": platform.python_version(),
            "platform": platform.system().lower(),
            "cpu_count": os.cpu_count(),
            "calibration_s": calibration_s,
        },
        "rigs": rigs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    for name, rig in rigs.items():
        eps = rig.get("events_per_s")
        per_core = rig.get("events_per_s_per_core")
        print("%-20s wall=%7.2fs events=%9d ev/s=%s ev/s/core=%s "
              "workers=%d rss=%d KB"
              % (name, rig["wall_s"], rig["events"],
                 "%.0f" % eps if eps else "-",
                 "%.0f" % per_core if per_core else "-",
                 rig.get("workers", 1), rig["peak_rss_kb"]))
    print("fork batch-start wall-clock reduction: %.1f%%"
          % rigs["fork10k_batched"]["wall_reduction_pct"])
    print("connection-plane sim-makespan reduction: %.1f%%"
          % rigs["fork10k_connplane"]["connplane_makespan_reduction_pct"])
    print("tracing-off (installed, disabled) overhead: %+.1f%%"
          % rigs["fork10k_tracing_off"]["tracing_off_overhead_pct"])
    print("shard speedup (cpu-time basis, %d workers): %.2fx"
          % (shard_workers, rigs["fork10k_shard4"]["shard_speedup"]))
    print("shard speedup (wall basis, %d workers, %s cores): %.2fx"
          % (shard_workers, os.cpu_count(),
             rigs["fork10k_shard4"]["shard_wall_speedup"]))
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
