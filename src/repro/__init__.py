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

from importlib import import_module

from . import params

__version__ = "1.0.0"

__all__ = ["params", "__version__", "lazy_exports"]


def lazy_exports(namespace, table):
    """A PEP 562 module ``__getattr__`` that loads public names on use.

    ``namespace`` is the package's ``globals()``; ``table`` maps each of
    its submodules (relative, ``".injector"``) to the names it exports.
    The first access of a name imports its submodule and binds the name
    in ``namespace``, so later accesses never reach this hook and
    ``from package import Name`` works as with an eager import.  An
    opt-in layer's package keeps eagerly only what a default run reads
    and exports the rest this way, so a run that never arms the layer
    never imports its implementation.

    A lazy name must differ from every submodule's name: importing the
    submodule binds the package attribute to the module itself, which
    would then shadow the name.
    """
    home = {name: submodule
            for submodule, names in table.items() for name in names}
    package = namespace["__name__"]

    def __getattr__(name):
        submodule = home.get(name)
        if submodule is None:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name))
        value = namespace[name] = getattr(
            import_module(submodule, package), name)
        return value

    return __getattr__
