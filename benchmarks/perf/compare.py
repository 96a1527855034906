"""Regression gate for BENCH_perf.json against the checked-in baseline.

Usage::

    python benchmarks/perf/compare.py BENCH_perf.json \
        [--baseline benchmarks/perf/baseline.json] \
        [--tolerance 0.15] [--min-reduction 25]

It first refuses (exit 2) a run it cannot compare with the baseline:

* a run on another Python major.minor — the harness's reference chunk
  (``perfbench/timing.py``) corrects for host speed, not for
  interpreter speed, or
* any rig whose ``forks`` or ``batch_pages`` differ from the
  baseline's (a ``--forks 1000`` run against the 10K baseline).

Otherwise the gate fails (exit 1) when

* a baseline rig is missing from the run, or
* any rig's ``nominal_wall_s`` (its host seconds scaled by the
  reference chunk, see ``harness.py``) regresses more than
  ``--tolerance`` (default 15%) over the baseline's, or
* a gate comparing two rigs of the same run misses its bound
  (:data:`SAME_RUN_GATES`): the batched fork rig's nominal-wall
  reduction over the unbatched one (``--min-reduction``, default ≥25%;
  the rigs run in separate interpreters, so raw seconds would compare
  two moments of the host's speed), the installed-but-disabled
  tracer's raw-CPU overhead (``--max-trace-overhead``, default ≤2%),
  and the connection plane's *simulated* makespan reduction on the RC
  fork storm (``--min-connplane-reduction``, default ≥15%), or
* ``--connscale CONNSCALE.json`` is given and the pooled fork
  throughput fails to scale with cluster size (or the unpooled baseline
  fails to plateau) — the ``experiments connscale`` contrast.

Event counts are simulation-deterministic; a drift is reported as info
(it means the event sequence changed, which the byte-identity tests
own) but does not fail the gate.
"""

import argparse
import json
import sys

#: Rig parameters that must equal the baseline's for a run to compare.
RIG_PARAMETERS = ("forks", "batch_pages")

#: Gates comparing two rigs of one run:
#: (rig, field, option holding the bound, bound is a floor, description).
SAME_RUN_GATES = (
    ("fork10k_batched", "wall_reduction_pct", "min_reduction", True,
     "batched fork rig nominal-wall reduction (%)"),
    ("fork10k_tracing_off", "tracing_off_overhead_pct",
     "max_trace_overhead", False,
     "installed-but-disabled tracer raw-CPU overhead (%)"),
    ("fork10k_connplane", "connplane_makespan_reduction_pct",
     "min_connplane_reduction", True,
     "connection-plane sim-makespan reduction (%)"),
)


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def refusals(current, baseline):
    """Why ``current`` cannot be compared with ``baseline`` (empty: it can)."""
    reasons = []
    versions = current["host"]["python"], baseline["host"]["python"]
    if versions[0].split(".")[:2] != versions[1].split(".")[:2]:
        reasons.append("python %s, baseline recorded on %s" % versions)
    for name, base_rig in sorted(baseline["rigs"].items()):
        # A missing rig is not refused here: the gate fails it below.
        cur_rig = current["rigs"].get(name, base_rig)
        reasons.extend("%s: %s=%s, baseline %s"
                       % (name, key, cur_rig.get(key), base_rig.get(key))
                       for key in RIG_PARAMETERS
                       if cur_rig.get(key) != base_rig.get(key))
    return reasons


#: connscale gate thresholds: pooled throughput must grow at least this
#: much from the smallest to the largest cluster, and the unpooled
#: baseline must grow *less* (the 700/s factory plateau).
CONNSCALE_MIN_POOLED_GROWTH = 1.5
CONNSCALE_MAX_UNPOOLED_GROWTH = 1.5


def check_connscale(payload):
    """Gate the pooled-scales / unpooled-plateaus throughput contrast.

    Returns a list of failure strings (empty = pass).  Throughput is the
    ``forks_per_sec`` column of ``experiments connscale``; growth is the
    largest-cluster rate over the smallest-cluster rate per variant.
    """
    failures = []
    rates = {}
    for row in payload.get("rows", ()):
        rates.setdefault(row["variant"], {})[row["invokers"]] = \
            row["forks_per_sec"]
    for variant in ("pooled", "unpooled"):
        if len(rates.get(variant, {})) < 2:
            failures.append(
                "connscale: needs >= 2 cluster sizes for %r" % variant)
    if failures:
        return failures
    growth = {}
    for variant, by_size in rates.items():
        smallest, largest = min(by_size), max(by_size)
        growth[variant] = (by_size[largest] / by_size[smallest]
                           if by_size[smallest] > 0 else 0.0)
        print("connscale %-8s throughput %7.1f -> %7.1f forks/s "
              "(x%d -> x%d invokers): %.2fx"
              % (variant, by_size[smallest], by_size[largest],
                 smallest, largest, growth[variant]))
    if growth["pooled"] < CONNSCALE_MIN_POOLED_GROWTH:
        failures.append(
            "connscale: pooled throughput grew only %.2fx (< %.1fx) "
            "across cluster sizes — the plane stopped scaling"
            % (growth["pooled"], CONNSCALE_MIN_POOLED_GROWTH))
    if growth["unpooled"] > CONNSCALE_MAX_UNPOOLED_GROWTH:
        failures.append(
            "connscale: unpooled throughput grew %.2fx (> %.1fx) — the "
            "700/s factory plateau the contrast rests on is gone"
            % (growth["unpooled"], CONNSCALE_MAX_UNPOOLED_GROWTH))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly produced BENCH_perf.json")
    parser.add_argument("--baseline", default="benchmarks/perf/baseline.json")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional nominal-wall regression "
                             "(0.15=15%%)")
    parser.add_argument("--min-reduction", type=float, default=25.0,
                        help="required batched-vs-unbatched reduction (%%)")
    parser.add_argument("--max-trace-overhead", type=float, default=2.0,
                        help="allowed tracing-off overhead over the "
                             "tracer-free fork rig (%%)")
    parser.add_argument("--min-connplane-reduction", type=float, default=15.0,
                        help="required connection-plane sim-makespan "
                             "reduction on the RC fork storm (%%)")
    parser.add_argument("--connscale", default=None,
                        help="optional CONNSCALE.json to gate the pooled-"
                             "scales/unpooled-plateaus throughput contrast")
    args = parser.parse_args(argv)

    current = load(args.current)
    baseline = load(args.baseline)
    reasons = refusals(current, baseline)
    if reasons:
        for reason in reasons:
            print("REFUSED: %s" % reason, file=sys.stderr)
        return 2
    print("python %s on %s cores (baseline: python %s on %s cores)"
          % (current["host"]["python"], current["host"]["cpu_count"],
             baseline["host"]["python"], baseline["host"]["cpu_count"]))

    failures = []
    for name, base_rig in sorted(baseline["rigs"].items()):
        cur_rig = current["rigs"].get(name)
        if cur_rig is None:
            failures.append("rig %r missing from current run" % name)
            continue
        nominal = cur_rig["nominal_wall_s"]
        limit = base_rig["nominal_wall_s"] * (1.0 + args.tolerance)
        status = "ok"
        if nominal > limit:
            status = "REGRESSION"
            failures.append(
                "%s: nominal wall %.2fs > baseline %.2fs +%.0f%%"
                % (name, nominal, base_rig["nominal_wall_s"],
                   args.tolerance * 100))
        print("%-20s nominal wall=%7.2fs (baseline %7.2fs, raw %7.2fs) %s"
              % (name, nominal, base_rig["nominal_wall_s"],
                 cur_rig["wall_s"], status))
        if base_rig["events"] != cur_rig["events"]:
            print("  note: events %d -> %d (sequence changed; owned by the "
                  "byte-identity tests)"
                  % (base_rig["events"], cur_rig["events"]))

    for rig, field, option, floor, what in SAME_RUN_GATES:
        value = current["rigs"].get(rig, {}).get(field)
        if value is None:
            failures.append("%s carries no %s" % (rig, field))
            continue
        bound = getattr(args, option)
        held = value >= bound if floor else value <= bound
        print("%s: %.2f (required %s %.2f) %s"
              % (what, value, ">=" if floor else "<=", bound,
                 "ok" if held else "FAIL"))
        if not held:
            failures.append("%s %.2f, required %s %.2f"
                            % (what, value, ">=" if floor else "<=", bound))

    if args.connscale:
        failures.extend(check_connscale(load(args.connscale)))

    if failures:
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return 1
    print("perf gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
