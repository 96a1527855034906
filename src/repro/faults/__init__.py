"""Deterministic cluster fault injection and the recovery-error taxonomy.

The subsystem that turns the simulator from fail-free into
crash-consistent: schedules machine crashes/restarts, RNIC port flaps,
link cuts, unreliable-datagram drop storms, *gray* degraded modes
(slow NICs, lossy links, CPU steal), and — when the fabricnet layer is
armed — fabric faults (ToR/host brownouts and cuts, seed-NIC
saturation storms) as discrete events
(:mod:`~repro.faults.schedule`), drives them through one cluster-wide
:class:`FaultInjector`, and defines the typed errors
(:mod:`~repro.faults.errors`) the recovery paths in ``rdma``, ``core``,
and ``fn`` raise.  With no injector installed every fault check is a
single ``is None`` test — the fail-free path stays zero-cost.

Importing the package loads only the typed errors, which the default
path catches; the injector and every schedule event load their
submodule on first access (:func:`repro.lazy_exports`), so a run that
never calls :meth:`~repro.fn.FnCluster.enable_faults` never imports
them.
"""

from .errors import (
    AdmissionShed,
    DeadlineExceeded,
    FaultError,
    InvocationLost,
    LeaseExpired,
    MachineCrashed,
    ParentUnreachable,
    SeedUnavailable,
)
from .. import lazy_exports

__getattr__ = lazy_exports(globals(), {
    ".injector": ("FaultInjector", "MachineCrashCause"),
    ".schedule": ("CpuSteal", "FabricCut", "FabricDegrade", "FaultEvent",
                  "FaultSchedule", "LinkCut", "LossyLink", "MachineCrash",
                  "NicFlap", "NicSaturation", "SlowNic", "UdDropStorm"),
})

__all__ = [
    "AdmissionShed",
    "CpuSteal",
    "DeadlineExceeded",
    "FabricCut",
    "FabricDegrade",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "InvocationLost",
    "LeaseExpired",
    "LinkCut",
    "LossyLink",
    "MachineCrash",
    "MachineCrashCause",
    "MachineCrashed",
    "NicFlap",
    "NicSaturation",
    "ParentUnreachable",
    "SeedUnavailable",
    "SlowNic",
    "UdDropStorm",
]
