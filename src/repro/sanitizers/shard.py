"""Runtime audit of the sharded fork rig's merged result.

The rig's workers never exchange messages: each replays the whole burst
and keeps only the invocations its shard owns.  The merged result
from :func:`~repro.shard.fork_rig.run_sharded` is sound only if

* every replica replayed the same pick sequence (identical pick
  digests) and the full pick count,
* the shards own a disjoint set of invokers, and
* the merged records are a complete per-invocation partition.
"""


def audit_shard(result):
    """Audit one merged sharded run; returns violation strings (empty =
    clean)."""
    violations = []
    reports = result["shards"]
    digests = {report["pick_digest"] for report in reports}
    if len(digests) != 1:
        violations.append(
            "replica pick digests diverged: %s" % sorted(digests))
    for report in reports:
        if report["picks"] != result["num_forks"]:
            violations.append(
                "shard %d replayed %d picks, expected %d"
                % (report["shard"], report["picks"], result["num_forks"]))
    owned = [index for report in reports
             for index in report["owned_invokers"]]
    if len(owned) != len(set(owned)):
        violations.append("invoker ownership overlaps across shards")
    seen = [entry[0] for entry in result["records"]]
    if seen != sorted(set(seen)) or len(seen) != result["num_forks"]:
        violations.append(
            "merged records are not a complete per-invocation partition")
    return violations
