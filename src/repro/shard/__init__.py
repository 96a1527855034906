"""The sharded fork rig: the 10K-fork burst across CPU cores.

Every worker process runs an identical replica of the cluster, replays
all submissions, and fully simulates only the invocations its shard
owns; see :mod:`repro.shard.fork_rig` for why the burst allows this and
how the result is checked against a single-core run.

Armed via ``REPRO_SHARDS=N`` (the perf harness and the ``shard``
experiment read it); unset, nothing in this package is imported by the
hot path and behaviour is byte-identical to the seed.
"""

from .coordinator import ShardWorkerError, run_sharded_tasks
from .fork_rig import (default_shards, diff_outcomes, differential,
                       owner_of, run_sharded, run_single)

__all__ = [
    "ShardWorkerError",
    "default_shards",
    "diff_outcomes",
    "differential",
    "owner_of",
    "run_sharded",
    "run_sharded_tasks",
    "run_single",
]
