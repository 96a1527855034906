"""The repository benchmark: one workload per process, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fork_burst --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics: host set-up, wall, CPU
and peak RSS, plus what the simulated MITOSIS system achieved (latency
percentiles, makespan, invoker memory).  The measured phase is repeated,
each time on a fresh cluster, until ``--seconds`` would be exceeded (at
least once); host metrics are medians over those repetitions, in
nominal seconds (``timing.py``), and every repetition must yield the
same simulated results.  ``setup_s`` is the median of several fresh
interpreters that each import the program and build the cluster.

``--trace 1`` runs the measured phase once untraced and once more with
the per-layer instruments of ``probes.py``, checks that the traced run
reproduces the untraced one, audits the rig with ``repro.sanitizers``
and reports the per-layer metrics.  ``--smoke`` shrinks every workload
for quick tests.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the lines before it give the provenance, every check, the digest and
every metric by name and unit.  A failed check makes the exit code 1,
a refused environment (an armed ``REPRO_*`` layer, a missing program)
exits 2 without a result.  See ``perfbench/README.md``.
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

import timing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters timed for ``setup_s``.
SETUP_SAMPLES = 9
#: Per-interpreter limit for one set-up sample, in seconds.
SETUP_TIMEOUT = 60

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = (
    ("setup_s", "s"),
    ("host_wall_s", "s"),
    ("host_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_p50_ms", "ms"),
    ("sim_latency_p99_ms", "ms"),
    ("sim_makespan_ms", "ms"),
    ("sim_mem_peak_mb", "MB"),
)


class Refused(Exception):
    """The benchmark cannot run here; it prints no result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fork_burst", "spike_replay",
                                 "state_chain"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring budget; at least one repetition")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload (tests)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    """Import the program from this checkout's ``src`` and the workloads.

    Raises :class:`Refused` when the program is missing, or when
    ``repro`` would come from anywhere but this checkout.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise Refused("no program at %s" % SRC)
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise Refused("repro imported from %s, not %s"
                      % (repro.__file__, SRC))
    import workloads
    return workloads


def armed_layers():
    """``REPRO_*`` settings that would arm a non-default layer.

    Each knob is resolved by the program's own parser, so ``0``/``off``
    spellings pass and anything the program would act on is caught.
    """
    from repro import params
    from repro.connplane import default_connplane
    from repro.core.paging import default_batch_pages
    from repro.fabricnet import default_fabric_mode
    from repro.lineage import default_seed_replicas
    from repro.shard import default_shards
    from repro.sim.scheduler import default_scheduler_name
    from repro.trace.tracer import enabled_by_env

    armed = []
    if default_fabric_mode() is not None:
        armed.append("REPRO_FABRIC")
    if default_connplane():
        armed.append("REPRO_CONNPLANE")
    if default_batch_pages() != params.PAGER_BATCH_PAGES_DEFAULT:
        armed.append("REPRO_PAGER_BATCH")
    if default_seed_replicas() != params.LINEAGE_SEED_REPLICAS_DEFAULT:
        armed.append("REPRO_SEED_REPLICAS")
    if default_shards() is not None:
        armed.append("REPRO_SHARDS")
    if default_scheduler_name() != "heap":
        armed.append("REPRO_SCHED")
    if enabled_by_env():
        armed.append("REPRO_TRACE")
    return armed


def git_revision():
    """The checkout's git revision, or None outside a git work tree.

    Git may not look above the checkout, so a checkout that is no work
    tree of its own reports None, not some enclosing repository's HEAD.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def peak_rss_mb():
    """Peak resident set size of this process, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


# --- Set-up time ------------------------------------------------------------------

def setup_probe(args):
    """Child side: time importing the program plus building the rig.

    Prints the nominal seconds (see ``timing.py``), with the host speed
    sampled right before and right after.
    """
    before = timing.reference_speed()
    started = time.perf_counter()
    workloads = import_workloads()
    workloads.build(args.workload, smoke=args.smoke)
    raw = time.perf_counter() - started
    speed = (before + timing.reference_speed()) / 2
    print(json.dumps({"setup_s": raw * timing.REFERENCE_NOMINAL_S / speed,
                      "raw_s": raw}))


def setup_seconds(args):
    """Median set-up time over :data:`SETUP_SAMPLES` fresh interpreters."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload]
    if args.smoke:
        command.append("--smoke")
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT)
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + done.stderr)
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return statistics.median(s["setup_s"] for s in samples), samples


# --- Measured phase ---------------------------------------------------------------

class Rep:
    """One repetition of the measured phase on a freshly built cluster."""

    def __init__(self, workloads, args, inputs, traced=False):
        import probes
        fn, profile = workloads.build(args.workload, smoke=args.smoke)
        #: Only the traced repetition keeps its cluster (for the sanitizer
        #: audit); untraced ones free theirs so peak RSS stays one rig's.
        self.fn = fn if traced else None
        before = probes.counter_totals(fn)
        events_before = fn.env.events_processed
        self.probe = self.split = None
        gc.collect()
        if traced:
            with probes.LayerProbe(fn.env) as probe, \
                    probes.HostSplit() as split:
                units, self.slices = workloads.drive(
                    args.workload, fn, profile, inputs)
            self.probe, self.split = probe, split.seconds()
        else:
            units, self.slices = workloads.drive(
                args.workload, fn, profile, inputs)
        #: Raw host seconds of the measured phase, and nominal ones.
        self.wall = sum(s.wall for s in self.slices)
        self.cpu = sum(s.cpu for s in self.slices)
        self.nominal_wall, self.nominal_cpu = timing.nominal(self.slices)
        self.summary = workloads.summarize(args.workload, fn, units)
        self.events = fn.env.events_processed - events_before
        self.counts = probes.counter_delta(before, probes.counter_totals(fn))

    def fingerprint(self):
        """What every repetition at one seed must reproduce exactly."""
        return (self.summary["digest"], self.events, len(self.slices),
                sorted(self.summary["sim"].items()),
                sorted(self.counts.items()))


def measure(workloads, args, inputs, seconds):
    """Untraced repetitions until the next one would overrun ``seconds``."""
    reps = []
    started = time.perf_counter()
    while True:
        reps.append(Rep(workloads, args, inputs))
        elapsed = time.perf_counter() - started
        if elapsed + reps[-1].wall > seconds:
            return reps


# --- Main -------------------------------------------------------------------------

def run(args):
    """Measure, check and report.  Returns the exit code."""
    workloads = import_workloads()
    armed = armed_layers()
    if armed:
        raise Refused("armed non-default layers via %s; unset them"
                      % ", ".join(armed))
    inputs = workloads.make_inputs(args.workload, args.seed, args.smoke)
    size = workloads.workload_params(args.workload, args.smoke)
    checks = {}

    # A traced run needs just one untraced repetition: the reference the
    # traced one must reproduce, and the base of the tracing overhead.
    if args.trace:
        reps = measure(workloads, args, inputs, 0.0)
    else:
        setup, setup_samples = setup_seconds(args)
        reps = measure(workloads, args, inputs, args.seconds)
    first = reps[0]
    checks["no_failed_units"] = all(r.summary["failed"] == 0 for r in reps)
    checks["one_record_per_submission"] = all(r.summary["records_ok"]
                                              for r in reps)
    checks["repetitions_identical"] = all(
        r.fingerprint() == first.fingerprint() for r in reps)

    report = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "params": size, "trace": args.trace, "repetitions": len(reps),
        "provenance": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "git_revision": git_revision(),
        },
        "digest": first.summary["digest"],
        "sim_events": first.events,
        "attempted_per_repetition": first.summary["attempted"],
        "fail_frac": first.summary["fail_frac"],
        "raw_host_wall_s_each": [r.wall for r in reps],
        "raw_host_cpu_s_each": [r.cpu for r in reps],
        "nominal_host_wall_s_each": [r.nominal_wall for r in reps],
        "counters": first.counts,
    }
    if args.trace:
        traced = Rep(workloads, args, inputs, traced=True)
        from repro.sanitizers import audit_rig
        violations = audit_rig(traced.fn)
        checks["trace_reproduces_untraced"] = (
            traced.fingerprint() == first.fingerprint())
        checks["sanitizers_clean"] = not violations
        report["sanitizer_violations"] = violations
        report["traced_digest"] = traced.summary["digest"]
        import probes
        metrics = probes.layer_metrics(
            traced.probe, traced.split, traced.counts, traced.events,
            traced.fn.records,
            # Raw seconds: the reference chunks run under the profiler
            # too, so nominal seconds would divide the overhead out.
            100.0 * (traced.cpu / first.cpu - 1.0))
    else:
        report["setup_s_each"] = setup_samples
        values = dict(first.summary["sim"])
        values.update(
            setup_s=setup,
            host_wall_s=statistics.median(r.nominal_wall for r in reps),
            host_cpu_s=statistics.median(r.nominal_cpu for r in reps),
            peak_rss_mb=peak_rss_mb())
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    report["checks"] = checks
    correct = all(checks.values())
    attempted = sum(r.summary["attempted"] for r in reps)
    failed = sum(r.summary["failed"] for r in reps)
    for name, (value, unit) in sorted(metrics.items()):
        print("metric %-36s %.6f %s" % (name, value, unit))
    for name, ok in sorted(checks.items()):
        print("check  %-36s %s" % (name, "ok" if ok else "FAILED"))
    print("digest %s sha256:%s fail_frac=%r"
          % (args.workload, first.summary["digest"], failed / attempted))
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        return run(args)
    except Refused as exc:
        print("perfbench: refused: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
