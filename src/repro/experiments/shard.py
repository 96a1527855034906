"""Sharded fork rig: differential exactness + per-core throughput.

Runs the 10K-fork rig (``--smoke``: a CI-sized burst) both single-core
and sharded across ``REPRO_SHARDS`` worker processes (default 2 in
smoke, 4 at bench scale), then:

* diffs per-invocation outcome tuples — they must match *exactly*
  (the determinism contract of :mod:`repro.shard.fork_rig`), with the
  residual timing skew measured and bounded rather than assumed zero;
* audits the merged result with :func:`repro.sanitizers.audit_shard`
  (replica digests, pick counts, ownership, record partition);
* reports aggregate events/s and the CPU-time shard speedup —
  ``(events / max worker cpu) / (events / cpu)`` single-core — the
  runner-independent form of the >=2x acceptance gate (wall-clock only
  beats single-core when the host actually has spare cores).

Writes the whole differential to ``SHARD_diff.json`` for CI upload.
"""

import json

from .. import sanitizers
from ..shard import default_shards, differential
from .report import ExperimentReport

#: Relative timing skew ceiling for the replica truncation (foreign
#: load removed from the seed machine's RPC workers and NIC egress
#: shifts owned timestamps by well under a percent of invocation
#: latency; measured ~3e-3 at bench scale).
MAX_SKEW_REL = 0.02


def _throughput_row(run, label):
    cpu = run["cpu_s"] or 1e-9
    return {
        "config": label,
        "workers": run["workers"],
        "invocations": run["num_forks"],
        "events": run["events"],
        "wall_s": run["wall_s"],
        "cpu_s": cpu,
        "events_per_s": run["events"] / run["wall_s"],
        "events_per_s_per_core": run["events"] / cpu,
    }


def run(num_forks=None, workers=None, smoke=False, out_json="SHARD_diff.json"):
    """Differential + throughput table; raises on any contract breach."""
    if workers is None:
        workers = default_shards() or (2 if smoke else 4)
    if num_forks is None:
        num_forks = 400 if smoke else 2000
    single, sharded, diff = differential(num_forks, workers)
    sanitizers.check_shard(sharded)
    if not diff["outcomes_match"]:
        raise AssertionError(
            "sharded run diverged from single-core on %d invocation(s), "
            "first: %r" % (len(diff["mismatches"]), diff["mismatches"][0]))
    skew = max(diff["max_started_skew_rel"], diff["max_finished_skew_rel"])
    if skew > MAX_SKEW_REL:
        raise AssertionError(
            "sharded timing skew %.4f exceeds the %.4f fidelity bound"
            % (skew, MAX_SKEW_REL))

    rows = [_throughput_row(single, "single-core"),
            _throughput_row(sharded, "sharded")]
    # Sharded per-core rate uses the *slowest worker* as the critical
    # path, so the speedup is what parallel hardware would realise.
    rows[1]["events_per_s_per_core"] = (
        sharded["events"] / (sharded["max_worker_cpu_s"] or 1e-9))
    speedup = (rows[1]["events_per_s_per_core"]
               / (rows[0]["events_per_s_per_core"] or 1e-9))
    report = ExperimentReport(
        "SHARD", "sharded fork rig: exactness + per-core throughput",
        notes="outcomes exact over %d invocations; max timing skew %.2e; "
              "cpu-parallel speedup %.2fx at %d shards"
              % (diff["invocations"], skew, speedup, workers))
    rows[0]["shard_speedup"] = 1.0
    rows[1]["shard_speedup"] = speedup
    for row in rows:
        report.add(**row)

    if out_json:
        payload = {
            "num_forks": num_forks,
            "workers": workers,
            "diff": {key: value for key, value in diff.items()
                     if key != "mismatches"},
            "mismatches": diff["mismatches"],
            "shard_speedup_cpu": speedup,
            "single": {k: single[k] for k in
                       ("events", "wall_s", "cpu_s", "sim_makespan")},
            "sharded": {k: sharded[k] for k in
                        ("events", "wall_s", "cpu_s", "max_worker_cpu_s",
                         "sim_makespan")},
        }
        with open(out_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    return report
