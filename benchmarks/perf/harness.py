"""Wall-clock benchmark harness: times representative rigs, emits BENCH_perf.json.

Unlike ``benchmarks/test_*.py`` (pytest-benchmark suites over *simulated*
results), this harness measures the simulator itself: host wall and CPU
seconds, events processed, events/sec, and peak RSS for six rigs —

* ``fork10k_unbatched`` / ``fork10k_batched`` — the 10K-fork batch start
  (Fig. 11's regime: one warm seed, N concurrent fork_resume + working-set
  paging), with the pager's doorbell batching off and on.  Their
  ``nominal_wall_s`` ratio (``wall_reduction_pct``) gates batching's
  ≥25% win in CI.
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
* ``grayfaults_smoke``   — the CI-sized brownout replay: fault injectors,
  hedged reads, breakers, deadline shedding.

Each rig, and the tracing-off A/B pairs, runs in a fresh interpreter
(``harness.py --rig NAME`` prints one rig's JSON), as perfbench runs one
workload per process, so no rig inherits the heap of the rigs before
it, and ``peak_rss_kb`` is each rig's own high-water mark.  One fresh
run of a rig still moves by several percent on a shared host, so
``--runs K`` runs every rig K times, in K rounds over all rigs, and
keeps each rig's median run (:func:`median_run`); the baseline is
recorded that way.

Host seconds follow perfbench's host-speed model (``perfbench/timing.py``):
each fork rig runs dry in slices of :data:`SLICE_SPAN` simulated time,
and ``grayfaults_smoke`` steps each variant of ``grayfaults.run(smoke=True)``
in batches of :data:`STEP_BATCH` events until its replay process is
processed, with a reference chunk timed after every slice or batch.
Each of these rigs reports its raw ``wall_s``/``cpu_s`` (reference
excluded) and the ``nominal_wall_s``/``nominal_cpu_s`` that
``compare.py`` holds against the baseline.

Usage::

    python benchmarks/perf/harness.py [--forks N] [--runs K] [--out BENCH_perf.json]
    python benchmarks/perf/harness.py --rig fork10k_batched [--forks N]

CI runs the full 10K forks.  ``--forks 1000`` is a quick local run, which
``compare.py`` refuses against the 10K-fork baseline.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import timing  # noqa: E402
from repro import params  # noqa: E402
from repro.fn import FnCluster, MitosisPolicy  # noqa: E402
from repro.trace import Tracer  # noqa: E402
from repro.workloads import tc0_profile  # noqa: E402

#: Pages per doorbelled range for the batched fork rig.
BATCH_PAGES = 8

#: Interleaved A/B pairs for the tracing-off overhead estimate.
TRACE_OVERHEAD_PAIRS = 10

#: Simulated span of one timing slice (perfbench's ``fork_burst`` slice).
SLICE_SPAN = 1.0 * params.MS

#: Events per timed batch of ``grayfaults_smoke`` (~10 ms of host time,
#: so the reference chunk after each adds under 1%).
STEP_BATCH = 2000


def _peak_rss_kb():
    """This process's peak RSS in KB (a monotonic high-water mark)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _host_fields(wall, cpu, nominal_wall, nominal_cpu, events):
    """The host fields of a rig."""
    return {"wall_s": wall, "cpu_s": cpu, "nominal_wall_s": nominal_wall,
            "nominal_cpu_s": nominal_cpu, "events": events,
            "events_per_s": events / wall,
            "events_per_s_per_core": events / cpu,
            "peak_rss_kb": _peak_rss_kb()}


def submit_burst(num_forks, batch_pages, tracing="none", connplane=False,
                 transport="dct"):
    """The 10K-fork batch start, set up: a MITOSIS FnCluster with a TC0
    function registered and ``num_forks`` invocations of it submitted,
    none yet run.  Returns ``(fn, sim_start)``.

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
    fn.env.run(fn.env.process(fn.register(profile)))
    for _ in range(num_forks):
        fn.submit(profile.name)
    return fn, fn.env.now


def run_fork_batch_start(num_forks, batch_pages, **knobs):
    """Run :func:`submit_burst`'s burst dry in timed slices."""
    fn, sim_start = submit_burst(num_forks, batch_pages, **knobs)
    slices = timing.run_sliced(fn.env, SLICE_SPAN)
    if len(fn.records) != num_forks:
        raise RuntimeError("%d of %d forks completed"
                           % (len(fn.records), num_forks))
    rig = _host_fields(sum(s.wall for s in slices),
                          sum(s.cpu for s in slices),
                          *timing.nominal(slices), fn.env.events_processed)
    # run_sliced leaves the clock on a slice boundary: the burst's
    # makespan ends at its last completion, not at env.now.
    finished = max(record.finished_at for record in fn.records)
    rig.update(sim_makespan_ms=(finished - sim_start) / params.MS,
               forks=num_forks, batch_pages=batch_pages,
               batched_reads=sum(node.pager.counters["batched_reads"]
                                 for node in fn.deployment.nodes()))
    return rig


def measure_tracing_overhead(num_forks, pairs=TRACE_OVERHEAD_PAIRS):
    """Median paired CPU-time overhead of an installed-but-disabled tracer.

    Shared hosts drift 10–30% within seconds — far above the
    single-digit effect being measured — so each of ``pairs`` A/B pairs
    runs its two bursts, tracer-free and tracer installed but disabled,
    in alternating :data:`SLICE_SPAN` slices, summing each burst's raw
    CPU seconds over its own slices: drift hits both sides alike.  The
    cyclic GC is paused meanwhile (the default path makes no cyclic
    garbage): a collection one burst triggers scans both heaps and would
    land on one side at random.  The pairs are reduced by the *median*
    of their relative differences.  Percentage overhead is scale-free
    (the guard cost is per event), so the pairs may run fewer forks than
    the headline rig.

    Returns ``(median_pct, sorted_diffs_pct)``.
    """
    diffs = []
    for _ in range(pairs):
        envs = [submit_burst(num_forks, 0, tracing=tracing)[0].env
                for tracing in ("none", "off-installed")]
        cpu = [0.0, 0.0]
        gc.disable()
        try:
            while any(env.peek() != float("inf") for env in envs):
                for side, env in enumerate(envs):
                    if env.peek() != float("inf"):
                        started = time.process_time()
                        env.run(until=env.peek() + SLICE_SPAN)
                        cpu[side] += time.process_time() - started
        finally:
            gc.enable()
        diffs.append(100.0 * (cpu[1] - cpu[0]) / cpu[0])
    diffs.sort()
    return statistics.median(diffs), diffs


def step_until(env, process):
    """Step ``env`` until ``process`` is processed, in timed batches of
    :data:`STEP_BATCH` events with a reference chunk after each: the
    events ``env.run(until=process)`` would process.  Returns one
    ``timing.Slice`` per batch."""
    slices = []
    step = env.step
    while not process.processed:
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(STEP_BATCH):
            step()
            if process.processed:
                break
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        slices.append(timing.Slice(wall, cpu, *timing.timed_reference()))
    return slices


def run_grayfaults_smoke():
    """CI-sized brownout replay (faults + resilience layers): each variant
    of ``grayfaults.run(smoke=True)``, built untimed, then stepped by
    :func:`step_until`."""
    from repro.experiments import grayfaults
    slices, events = [], 0
    for _, brownout in grayfaults.variants(smoke=True):
        slices += step_until(brownout.fn.env, brownout.replay)
        fn, _, _ = brownout.finish()
        events += fn.env.events_processed
    return _host_fields(sum(s.wall for s in slices),
                        sum(s.cpu for s in slices),
                        *timing.nominal(slices), events)


def _tracing_overhead(num_forks):
    """:func:`measure_tracing_overhead` as a rig-shaped dict."""
    pair_forks = max(200, num_forks // 10)
    overhead_pct, pair_diffs = measure_tracing_overhead(pair_forks)
    return {"tracing_off_overhead_pct": overhead_pct,
            "overhead_pair_forks": pair_forks,
            "overhead_pair_diffs_pct": pair_diffs}


#: Every measurement, in run order: name -> (what it runs, ``forks ->``
#: its dict).  ``tracing_overhead`` is folded into the tracing-off rig.
RIGS = {
    "fork10k_unbatched": (
        "unbatched", lambda forks: run_fork_batch_start(forks, 0)),
    "fork10k_tracing_off": (
        "tracer installed, disabled",
        lambda forks: run_fork_batch_start(forks, 0,
                                           tracing="off-installed")),
    "tracing_overhead": (
        "tracing-off overhead, %d A/B pairs" % TRACE_OVERHEAD_PAIRS,
        _tracing_overhead),
    "fork10k_batched": (
        "batch_pages=%d" % BATCH_PAGES,
        lambda forks: run_fork_batch_start(forks, BATCH_PAGES)),
    "fork10k_rc": (
        "RC transport, per-fork connects",
        lambda forks: run_fork_batch_start(forks, BATCH_PAGES,
                                           transport="rc")),
    "fork10k_connplane": (
        "RC transport, connection plane",
        lambda forks: run_fork_batch_start(forks, BATCH_PAGES,
                                           connplane=True, transport="rc")),
    "grayfaults_smoke": (
        "brownout replay", lambda forks: run_grayfaults_smoke()),
}


def run_in_fresh_interpreter(name, num_forks):
    """Run rig ``name`` in a new Python process; returns its dict."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--rig", name,
         "--forks", str(num_forks)],
        capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError("rig %s failed:\n%s" % (name, done.stderr))
    return json.loads(done.stdout.splitlines()[-1])


def median_run(runs):
    """The run of one rig whose headline is the median of ``runs`` (the
    lower middle one of an even count), as a new dict listing every
    run's headline, sorted, under ``<headline>_runs``.  The headline is
    ``nominal_wall_s``, else the overhead estimate (the tracing-off A/B
    pairs)."""
    field = ("nominal_wall_s" if "nominal_wall_s" in runs[0]
             else "tracing_off_overhead_pct")
    runs = sorted(runs, key=lambda rig: rig[field])
    rig = dict(runs[(len(runs) - 1) // 2])
    if len(runs) > 1:
        rig[field + "_runs"] = [run[field] for run in runs]
    return rig


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_perf.json",
                        help="output path (default: ./BENCH_perf.json)")
    parser.add_argument("--forks", type=int, default=10_000,
                        help="forks for the batch-start rig (default 10000)")
    parser.add_argument("--rig", choices=sorted(RIGS), default=None,
                        help="run only this rig, in this process, and "
                             "print its JSON")
    parser.add_argument("--runs", type=int, default=1,
                        help="run every rig this many times and keep each "
                             "rig's median run (default 1)")
    args = parser.parse_args(argv)
    num_forks = args.forks
    if args.rig is not None:
        print(json.dumps(RIGS[args.rig][1](num_forks)))
        return 0
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    runs = {name: [] for name in RIGS}
    for round_ in range(args.runs):
        for name, (what, _) in RIGS.items():
            print("[perf] run %d/%d: %s (%s) ..."
                  % (round_ + 1, args.runs, name, what), flush=True)
            runs[name].append(run_in_fresh_interpreter(name, num_forks))
    rigs = {name: median_run(each) for name, each in runs.items()}
    rigs["fork10k_tracing_off"].update(rigs.pop("tracing_overhead"))

    # Nominal, not raw: the two rigs run in different interpreters at
    # different times, and only nominal seconds correct for the host's
    # speed in between.
    unbatched = rigs["fork10k_unbatched"]["nominal_wall_s"]
    batched = rigs["fork10k_batched"]["nominal_wall_s"]
    rigs["fork10k_batched"]["wall_reduction_pct"] = (
        100.0 * (unbatched - batched) / unbatched if unbatched > 0 else 0.0)
    # The headline connplane win: same RC fork storm, plane off vs on.
    # (The DCT ``fork10k_batched`` rig pays no per-fork connects at all,
    # so it doubles as the floor the pooled RC rig should land near.)
    rc_sim = rigs["fork10k_rc"]["sim_makespan_ms"]
    plane_sim = rigs["fork10k_connplane"]["sim_makespan_ms"]
    rigs["fork10k_connplane"]["connplane_makespan_reduction_pct"] = (
        100.0 * (rc_sim - plane_sim) / rc_sim if rc_sim > 0 else 0.0)

    payload = {
        "version": 1,
        "schema": "BENCH_perf",
        "host": {
            "python": platform.python_version(),
            "platform": platform.system().lower(),
            "cpu_count": os.cpu_count(),
        },
        "rigs": rigs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    for name, rig in rigs.items():
        print("%-20s wall=%7.2fs nominal=%7.2fs events=%9d ev/s/core=%.0f "
              "rss=%d KB"
              % (name, rig["wall_s"], rig["nominal_wall_s"], rig["events"],
                 rig["events_per_s_per_core"], rig["peak_rss_kb"]))
    print("fork batch-start nominal-wall reduction: %.1f%%"
          % rigs["fork10k_batched"]["wall_reduction_pct"])
    print("connection-plane sim-makespan reduction: %.1f%%"
          % rigs["fork10k_connplane"]["connplane_makespan_reduction_pct"])
    print("tracing-off (installed, disabled) overhead: %+.1f%%"
          % rigs["fork10k_tracing_off"]["tracing_off_overhead_pct"])
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
