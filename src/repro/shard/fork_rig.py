"""The sharded 10K-fork rig: partitioned replicas + differential check.

The fail-free fork storm has a special structure: every cross-shard
input to a shard's partition is *deterministically replayable*.  The
LB's burst dispatch is a pure least-loaded round-robin over state that
evolves only by the picks themselves (every pick precedes every
completion), the provisioning sequence is seed-fixed, and no RNG stream
is drawn on the fail-free path.  So instead of streaming messages,
every worker builds an **identical replica** of the whole cluster,
replays *all* submissions, and truncates foreign invocations
immediately after their dispatch pick (the
:attr:`~repro.fn.FnCluster.shard_filter` seam): the pick itself is
replayed — keeping LB state exact — while the foreign fork/paging work
is skipped.  Each invocation is fully simulated on exactly one shard,
which is where the speedup comes from.

Two loud guards police the replay assumption:

* every worker digests its full pick sequence; the coordinator requires
  all digests identical (a workload whose picks depend on completions —
  e.g. staggered arrivals — diverges here and fails, by design);
* :func:`differential` replays the same rig single-core and requires
  per-invocation outcome tuples ``(function, invoker, start_kind,
  outcome, attempts)`` to match *exactly*, reporting the residual
  timing skew (foreign truncation removes foreign load from the seed
  machine's RPC workers and NIC egress, so owned invocations can start
  marginally earlier than single-core — the measured fidelity boundary,
  asserted small rather than assumed zero).

Workers never exchange messages; ``audit_shard`` checks the merged
result (digests, pick counts, ownership, record partition).
"""

import hashlib
import os
import time  # reprolint: disable=no-wallclock-or-global-random

from ..fn import FnCluster, MitosisPolicy
from ..workloads import tc0_profile
from .coordinator import run_sharded_tasks

#: Environment knob: worker count for the sharded rig (the README
#: quickstart's ``REPRO_SHARDS=4``).
SHARDS_ENV_VAR = "REPRO_SHARDS"

#: Outcome fields compared exactly by :func:`differential`.
OUTCOME_FIELDS = ("function", "invoker", "start_kind", "outcome",
                  "attempts")


def default_shards():
    """Worker count from ``REPRO_SHARDS`` (unset/empty/0 -> ``None``:
    sharding stays off and nothing about the run changes)."""
    raw = os.environ.get(SHARDS_ENV_VAR, "")
    if raw in ("", "0"):
        return None
    workers = int(raw)
    if workers < 1:
        raise ValueError("%s=%r must be a positive worker count"
                         % (SHARDS_ENV_VAR, raw))
    return workers


def owner_of(invoker_index, workers):
    """The shard owning ``invoker_index`` (round-robin machine groups,
    balanced for any invoker count)."""
    return invoker_index % workers


def _build_cluster(batch_pages):
    """One replica of the harness's fork-rig cluster.

    Every worker builds the *same* cluster (same seed, same shape) so
    provisioning and LB state replay identically.
    """
    return FnCluster(MitosisPolicy(), num_invokers=8, num_machines=11,
                     num_dfs_osds=2, seed=0, batch_pages=batch_pages)


def _drive_burst(fn, profile, num_forks):
    """Provision, submit ``num_forks`` invocations, drain them.

    Returns ``(per-submission results, sim_makespan)`` — results hold
    the :class:`~repro.fn.functions.InvocationRecord` for invocations
    this replica ran fully, ``None`` for truncated foreign ones.
    """
    def setup():
        yield from fn.register(profile)

    # A shard worker's whole body is a rig driver, same as the perf
    # harness burst it replays.
    fn.env.run(fn.env.process(setup()))  # reprolint: disable=event-handler-hygiene
    sim_start = fn.env.now
    procs = [fn.submit(profile.name) for _ in range(num_forks)]
    results = [fn.env.run(proc) for proc in procs]  # reprolint: disable=event-handler-hygiene
    return results, fn.env.now - sim_start


def _record_tuple(index, record):
    return (index, record.function_name, record.submitted_at,
            record.started_at, record.finished_at, record.start_kind,
            record.invoker_index, record.outcome, record.attempts)


def _fork_shard_task(shard_id, workers, num_forks, batch_pages):
    """Worker body: replica + truncation filter + measurement."""
    fn = _build_cluster(batch_pages)
    digest = hashlib.sha256()
    picks = 0

    def shard_filter(invoker_index):
        nonlocal picks
        picks += 1
        digest.update(b"%d;" % invoker_index)
        return owner_of(invoker_index, workers) == shard_id

    fn.shard_filter = shard_filter
    profile = tc0_profile()
    # Host-resource measurement of the worker itself, never sim state.
    wall0 = time.perf_counter()  # reprolint: disable=no-wallclock-or-global-random
    cpu0 = time.process_time()  # reprolint: disable=no-wallclock-or-global-random
    results, makespan = _drive_burst(fn, profile, num_forks)
    wall = time.perf_counter() - wall0  # reprolint: disable=no-wallclock-or-global-random
    cpu = time.process_time() - cpu0  # reprolint: disable=no-wallclock-or-global-random
    return {
        "shard": shard_id,
        "workers": workers,
        "owned_invokers": sorted(
            inv.index for inv in fn.invokers
            if owner_of(inv.index, workers) == shard_id),
        "events": fn.env.events_processed,
        "cpu_s": cpu,
        "wall_s": wall,
        "sim_makespan": makespan,
        "records": [_record_tuple(i, r)
                    for i, r in enumerate(results) if r is not None],
        "pick_digest": digest.hexdigest(),
        "picks": picks,
    }


def run_sharded(num_forks, workers, batch_pages=0):
    """Run the fork rig across ``workers`` shard processes.

    Returns a merged result dict; raises on any divergence between
    replicas (pick digests), on a lost or doubly-owned invocation, or
    on a worker failure.
    """
    def task(shard_id, total):
        return _fork_shard_task(shard_id, total, num_forks, batch_pages)

    wall0 = time.perf_counter()  # reprolint: disable=no-wallclock-or-global-random
    reports = run_sharded_tasks(task, workers)
    wall = time.perf_counter() - wall0  # reprolint: disable=no-wallclock-or-global-random

    digests = {report["pick_digest"] for report in reports}
    if len(digests) != 1:
        raise RuntimeError(
            "shard replicas diverged: %d distinct pick digests %s — this "
            "workload's dispatch depends on completions and cannot be "
            "replayed per-shard" % (len(digests), sorted(digests)))
    by_index = {}
    for report in reports:
        for entry in report["records"]:
            index = entry[0]
            if index in by_index:
                raise RuntimeError(
                    "invocation %d owned by two shards" % index)
            by_index[index] = entry
    if len(by_index) != num_forks:
        missing = sorted(set(range(num_forks)) - set(by_index))[:5]
        raise RuntimeError(
            "merged run lost %d invocation(s) (first: %s)"
            % (num_forks - len(by_index), missing))
    return {
        "workers": workers,
        "num_forks": num_forks,
        "batch_pages": batch_pages,
        "records": [by_index[i] for i in range(num_forks)],
        "events": sum(report["events"] for report in reports),
        "wall_s": wall,
        "cpu_s": sum(report["cpu_s"] for report in reports),
        "max_worker_cpu_s": max(report["cpu_s"] for report in reports),
        "sim_makespan": max(report["sim_makespan"] for report in reports),
        "shards": reports,
    }


def run_single(num_forks, batch_pages=0):
    """The same rig single-core, in-process — the differential baseline."""
    fn = _build_cluster(batch_pages)
    profile = tc0_profile()
    wall0 = time.perf_counter()  # reprolint: disable=no-wallclock-or-global-random
    cpu0 = time.process_time()  # reprolint: disable=no-wallclock-or-global-random
    results, makespan = _drive_burst(fn, profile, num_forks)
    wall = time.perf_counter() - wall0  # reprolint: disable=no-wallclock-or-global-random
    cpu = time.process_time() - cpu0  # reprolint: disable=no-wallclock-or-global-random
    return {
        "workers": 1,
        "num_forks": num_forks,
        "batch_pages": batch_pages,
        "records": [_record_tuple(i, r) for i, r in enumerate(results)],
        "events": fn.env.events_processed,
        "wall_s": wall,
        "cpu_s": cpu,
        "max_worker_cpu_s": cpu,
        "sim_makespan": makespan,
    }


def outcome_of(entry):
    """The exact-match fields of one merged record tuple."""
    _index, name, _sub, _start, _fin, kind, invoker, outcome, attempts = entry
    return (name, invoker, kind, outcome, attempts)


def diff_outcomes(single, sharded):
    """Compare a sharded run against the single-core baseline.

    Outcome tuples must match exactly per invocation; timing skew
    (started_at / finished_at, relative to the single-core latency) is
    measured and returned, not assumed zero.  Returns a report dict
    with ``mismatches`` (list, empty on success) and skew stats.
    """
    mismatches = []
    max_started_skew = 0.0
    max_finished_skew = 0.0
    for entry_s, entry_m in zip(single["records"], sharded["records"]):
        if entry_s[0] != entry_m[0]:
            raise RuntimeError("record index misalignment: %r vs %r"
                               % (entry_s[0], entry_m[0]))
        if outcome_of(entry_s) != outcome_of(entry_m):
            mismatches.append((entry_s[0], outcome_of(entry_s),
                               outcome_of(entry_m)))
            continue
        latency = entry_s[4] - entry_s[2]
        scale = latency if latency > 0 else 1.0
        max_started_skew = max(max_started_skew,
                               abs(entry_m[3] - entry_s[3]) / scale)
        max_finished_skew = max(max_finished_skew,
                                abs(entry_m[4] - entry_s[4]) / scale)
    return {
        "invocations": len(single["records"]),
        "mismatches": mismatches,
        "outcomes_match": not mismatches,
        "max_started_skew_rel": max_started_skew,
        "max_finished_skew_rel": max_finished_skew,
        "makespan_skew_rel": (
            abs(sharded["sim_makespan"] - single["sim_makespan"])
            / single["sim_makespan"] if single["sim_makespan"] else 0.0),
    }


def differential(num_forks, workers, batch_pages=0):
    """Run both configurations and diff them; returns
    ``(single, sharded, diff)``."""
    single = run_single(num_forks, batch_pages=batch_pages)
    sharded = run_sharded(num_forks, workers, batch_pages=batch_pages)
    return single, sharded, diff_outcomes(single, sharded)
