"""Regression gate for BENCH_perf.json against the checked-in baseline.

Usage::

    python benchmarks/perf/compare.py BENCH_perf.json \
        [--baseline benchmarks/perf/baseline.json] \
        [--tolerance 0.15] [--min-reduction 25]

Wall times are normalized by the host-speed calibration loop recorded in
each file (``host.calibration_s``), so a slower CI runner does not read
as a code regression.  The gate fails (exit 1) when

* any rig's normalized wall time regresses more than ``--tolerance``
  (default 15%) over the baseline, or
* the same-run batched-vs-unbatched wall-clock reduction of the fork
  batch-start rig falls below ``--min-reduction`` percent (default 25) —
  the doorbell-batching speedup this harness exists to protect, or
* the installed-but-disabled tracer costs more than
  ``--max-trace-overhead`` percent (default 2) over the tracer-free fork
  rig — the zero-cost-when-off promise of ``repro.trace``, or
* the sharded fork rig's CPU-time speedup over the single-core rig
  falls below ``--min-shard-speedup`` (default 2) — the ``repro.shard``
  scaling promise.  The CPU-time basis (aggregate events over the
  slowest worker's CPU seconds) is runner-independent: wall-clock only
  reflects the speedup when the runner actually has that many cores
  (``shard_wall_speedup`` is printed next to it, as info only), or
* the connection plane's *simulated* makespan reduction on the RC fork
  storm (``fork10k_connplane`` vs ``fork10k_rc``) falls below
  ``--min-connplane-reduction`` percent (default 15) — the
  ``repro.connplane`` warm-pool win, or
* ``--connscale CONNSCALE.json`` is given and the pooled fork
  throughput fails to scale with cluster size (or the unpooled baseline
  fails to plateau) — the ``experiments connscale`` contrast.

Event counts are simulation-deterministic; a drift is reported as info
(it means the event sequence changed, which the byte-identity tests own)
but does not fail the gate.  Rigs whose baseline records zero events
(trace-analysis-only rigs like ``fig1_smoke``) are reported but excluded
from the wall gate — their wall time is host noise, not simulator work —
as are multi-worker rigs, whose wall time depends on the runner's core
count, which the calibration loop cannot see.
"""

import argparse
import json
import sys


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _cores(payload):
    """The recorded ``os.cpu_count()`` of a run's host, or "unrecorded"
    (files from before the harness recorded it)."""
    return payload["host"].get("cpu_count") or "unrecorded"


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
                        help="allowed fractional wall regression (0.15=15%%)")
    parser.add_argument("--min-reduction", type=float, default=25.0,
                        help="required batched-vs-unbatched reduction (%%)")
    parser.add_argument("--max-trace-overhead", type=float, default=2.0,
                        help="allowed tracing-off overhead over the "
                             "tracer-free fork rig (%%)")
    parser.add_argument("--min-shard-speedup", type=float, default=2.0,
                        help="required sharded-fork CPU-time speedup over "
                             "single-core (x)")
    parser.add_argument("--min-connplane-reduction", type=float, default=15.0,
                        help="required connection-plane sim-makespan "
                             "reduction on the RC fork storm (%%)")
    parser.add_argument("--connscale", default=None,
                        help="optional CONNSCALE.json to gate the pooled-"
                             "scales/unpooled-plateaus throughput contrast")
    args = parser.parse_args(argv)

    current = load(args.current)
    baseline = load(args.baseline)

    base_cal = baseline["host"]["calibration_s"]
    cur_cal = current["host"]["calibration_s"]
    speed = base_cal / cur_cal if cur_cal > 0 else 1.0
    print("host speed factor vs baseline: %.2fx "
          "(baseline cal %.3fs on %s cores, current cal %.3fs on %s cores)"
          % (speed, base_cal, _cores(baseline), cur_cal, _cores(current)))

    failures = []
    for name, base_rig in sorted(baseline["rigs"].items()):
        cur_rig = current["rigs"].get(name)
        if cur_rig is None:
            failures.append("rig %r missing from current run" % name)
            continue
        normalized = cur_rig["wall_s"] * speed
        limit = base_rig["wall_s"] * (1.0 + args.tolerance)
        status = "ok"
        if not base_rig.get("events"):
            # fig1_smoke drives no simulation events — it is pure trace
            # analysis over a pre-recorded run, and its sub-millisecond
            # wall time is dominated by host noise (interpreter startup
            # jitter swamps any real regression).  Report it for the
            # record but keep it out of the pass/fail gate.
            print("%-20s wall=%7.2fs (events: 0 — trace-only rig, "
                  "excluded from wall gate)" % (name, cur_rig["wall_s"]))
            continue
        workers = max(base_rig.get("workers", 1),
                      cur_rig.get("workers", 1))
        if workers > 1:
            # Wall time of a multi-process rig scales with the runner's
            # core count, which the single-threaded calibration loop
            # cannot normalize away; its own gate is shard_speedup.
            print("%-20s wall=%7.2fs workers=%d ev/s/core=%s (multi-"
                  "worker rig, excluded from wall gate)"
                  % (name, cur_rig["wall_s"], workers,
                     "%.0f" % cur_rig["events_per_s_per_core"]
                     if cur_rig.get("events_per_s_per_core") else "-"))
            continue
        if normalized > limit:
            status = "REGRESSION"
            failures.append(
                "%s: normalized wall %.2fs > baseline %.2fs +%.0f%%"
                % (name, normalized, base_rig["wall_s"],
                   args.tolerance * 100))
        per_core = cur_rig.get("events_per_s_per_core")
        print("%-20s wall=%7.2fs (normalized %7.2fs, baseline %7.2fs) "
              "ev/s/core=%s %s"
              % (name, cur_rig["wall_s"], normalized, base_rig["wall_s"],
                 "%.0f" % per_core if per_core else "-", status))
        if (base_rig.get("events") and cur_rig.get("events")
                and base_rig["events"] != cur_rig["events"]):
            print("  note: events %d -> %d (sequence changed; owned by the "
                  "byte-identity tests)"
                  % (base_rig["events"], cur_rig["events"]))

    reduction = current["rigs"]["fork10k_batched"].get("wall_reduction_pct")
    if reduction is None:
        failures.append("fork10k_batched carries no wall_reduction_pct")
    else:
        print("fork batch-start reduction: %.1f%% (required >= %.0f%%)"
              % (reduction, args.min_reduction))
        if reduction < args.min_reduction:
            failures.append(
                "batched fork rig reduction %.1f%% < required %.0f%%"
                % (reduction, args.min_reduction))

    tracing_rig = current["rigs"].get("fork10k_tracing_off")
    if tracing_rig is None:
        failures.append("current run carries no fork10k_tracing_off rig")
    else:
        overhead = tracing_rig.get("tracing_off_overhead_pct")
        if overhead is None:
            failures.append(
                "fork10k_tracing_off carries no tracing_off_overhead_pct")
        else:
            print("tracing-off overhead: %+.1f%% (allowed <= %.0f%%)"
                  % (overhead, args.max_trace_overhead))
            if overhead > args.max_trace_overhead:
                failures.append(
                    "installed-but-disabled tracer costs %.1f%% > "
                    "allowed %.0f%%" % (overhead, args.max_trace_overhead))

    shard_rig = current["rigs"].get("fork10k_shard4")
    if shard_rig is None:
        failures.append("current run carries no fork10k_shard4 rig")
    else:
        speedup = shard_rig.get("shard_speedup")
        if speedup is None:
            failures.append("fork10k_shard4 carries no shard_speedup")
        else:
            print("shard speedup (cpu-time basis, %d workers): %.2fx "
                  "(required >= %.1fx)"
                  % (shard_rig.get("workers", 0), speedup,
                     args.min_shard_speedup))
            if speedup < args.min_shard_speedup:
                failures.append(
                    "sharded fork rig speedup %.2fx < required %.1fx"
                    % (speedup, args.min_shard_speedup))
        wall_speedup = shard_rig.get("shard_wall_speedup")
        if wall_speedup is not None:
            print("shard speedup (wall basis, %s cores; info only): %.2fx"
                  % (_cores(current), wall_speedup))

    plane_rig = current["rigs"].get("fork10k_connplane")
    if plane_rig is None:
        failures.append("current run carries no fork10k_connplane rig")
    else:
        plane_red = plane_rig.get("connplane_makespan_reduction_pct")
        if plane_red is None:
            failures.append("fork10k_connplane carries no "
                            "connplane_makespan_reduction_pct")
        else:
            print("connection-plane sim-makespan reduction: %.1f%% "
                  "(required >= %.0f%%)"
                  % (plane_red, args.min_connplane_reduction))
            if plane_red < args.min_connplane_reduction:
                failures.append(
                    "connplane RC fork-storm reduction %.1f%% < "
                    "required %.0f%%"
                    % (plane_red, args.min_connplane_reduction))

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
