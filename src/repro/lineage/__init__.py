"""Seed lineage fault tolerance: replicated seeds + generation fencing.

The paper's remote fork makes every child fate-share with its seed: a
dead or flapping parent machine strands children mid-page-in, and the
only fallback is CRIU-from-DFS (slow) or a cold start (slower).  This
package adds the control-plane capability ROADMAP item 2 names:

* :class:`~repro.lineage.runtime.LineageRuntime` — K-way seed
  replication: a copier streams descriptor + page state from the
  primary seed to replica hosts over the existing RDMA paging paths,
  tracking per-replica *copy epochs* (a replica knows exactly which
  VMAs it can serve), plus split-brain-safe promotion and fencing.
* :class:`~repro.lineage.registry.LineageRegistry` — the LB-side
  authoritative record of placements, leases, and generations, with a
  write-ahead log (:class:`~repro.lineage.wal.WriteAheadLog`) replayed
  on controller restart.
* :class:`~repro.lineage.errors.StaleGeneration` — the authoritative
  rejection a fenced (stale-generation) descriptor RPC receives.

Everything is gated on :meth:`repro.fn.FnCluster.enable_lineage` (or
``REPRO_SEED_REPLICAS=K`` picked up by ``enable_faults``): with
replication off the event sequence stays byte-identical to the seed —
the repo-wide invariant.  Importing the package loads only
:class:`StaleGeneration` (the pager and the descriptor daemon catch it)
and :func:`default_seed_replicas`; the registry, the runtime and the
log load their submodule on first access (:func:`repro.lazy_exports`),
so an unarmed run never imports them.

Generations are *fencing tokens*: they are compared monotonically
(``stale < fence``), never for equality — the ``stale-generation-compare``
reprolint rule enforces this repo-wide.
"""

import os

from .. import lazy_exports, params
from .errors import StaleGeneration

__getattr__ = lazy_exports(globals(), {
    ".registry": ("LineageRegistry",),
    ".runtime": ("LineageRuntime",),
    ".wal": ("WalRecord", "WriteAheadLog"),
})


def default_seed_replicas():
    """Resolve the replication default: the ``REPRO_SEED_REPLICAS``
    environment variable (replicas per seed), else
    :data:`repro.params.LINEAGE_SEED_REPLICAS_DEFAULT` (0 = off, the
    seed's fate-sharing behavior).  The env var lets CI arm replication
    for a whole run without threading a flag through every rig."""
    value = os.environ.get("REPRO_SEED_REPLICAS")
    if value is None:
        return params.LINEAGE_SEED_REPLICAS_DEFAULT
    return max(0, int(value))


__all__ = [
    "LineageRegistry",
    "LineageRuntime",
    "StaleGeneration",
    "WalRecord",
    "WriteAheadLog",
    "default_seed_replicas",
]
