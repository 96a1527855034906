"""repro — a full reproduction of MITOSIS (OSDI 2023).

*No Provisioned Concurrency: Fast RDMA-codesigned Remote Fork for
Serverless Computing*, rebuilt as a production-quality Python library on a
discrete-event simulated cluster (see DESIGN.md for the substitution
rationale).

Layering (bottom-up):

* :mod:`repro.sim` — discrete-event kernel.
* :mod:`repro.cluster` — machines, racks, DRAM accounting.
* :mod:`repro.fabricnet` — the opt-in shared Clos fabric with DCQCN.
* :mod:`repro.rdma` — RNICs, RC/DC/UD transports, MRs, FaSST RPC.
* :mod:`repro.kernel` — frames, page tables, VMAs, faults, local fork.
* :mod:`repro.containers` — images and the Docker-like runtime.
* :mod:`repro.criu` / :mod:`repro.dfs` — the C/R baseline and its DFS.
* :mod:`repro.core` — **MITOSIS** itself.
* :mod:`repro.connplane` / :mod:`repro.lineage` — opt-in QP pools and
  adverts; opt-in seed replication with generation fencing.
* :mod:`repro.faults` / :mod:`repro.resilience` — fault injection and
  the gray-failure defences.
* :mod:`repro.fn` / :mod:`repro.openwhisk` — the Fn serverless framework
  integration and an OpenWhisk-style second framework.
* :mod:`repro.shard` — only the ``REPRO_SHARDS`` knob's parse, kept so
  a guard can refuse the removed sharded rig's setting.
* :mod:`repro.workloads` / :mod:`repro.experiments` — traces, functions,
  and one harness per table/figure in the paper.
* :mod:`repro.trace` / :mod:`repro.metrics` / :mod:`repro.sanitizers` —
  spans over simulated time, counters and series, runtime audits.
"""

from . import params

__version__ = "1.0.0"

__all__ = ["params", "__version__"]
