"""Shared-fabric model: oversubscribed Clos topology + DCQCN pacing.

The seed repo charges every RDMA verb a fixed point-to-point cost
(latency + ``nbytes / RDMA_BANDWIDTH``), which cannot express the
failure mode that actually kills remote fork at scale: thousands of
children pulling pages from a handful of seed hosts melt the seed NIC
and the oversubscribed spine long before per-verb costs matter
(ROADMAP item 4).  This package models that fabric:

* :class:`ClosFabricTopology` — host NIC -> ToR -> spine link graph
  with per-link capacities (ToR uplinks oversubscribed);
* :class:`FabricLink` — fluid-model link: a virtual clock tracks the
  busy horizon, so backlog, serialization and queuing delay fall out
  of arithmetic instead of per-packet events;
* :class:`FabricFlow` — DCQCN-flavored per-(src, dst) rate state:
  ECN marks raise ``alpha`` and cut the rate multiplicatively,
  elapsed time recovers it additively toward line rate;
* :class:`FabricNetwork` — the front-end ``RdmaFabric.stream`` defers
  to when armed: pace at the flow rate, charge every link on the
  path, tail-drop + bounded go-back-N retransmit on overflow.

Gating invariant (same contract as every optional layer): the model is
**off by default** (``RdmaFabric.net is None``) and arming is explicit
(``FnCluster.enable_fabric()`` or ``REPRO_FABRIC=flat|dcqcn``).  With
it off, not one line here runs and the fail-free event sequence is
byte-identical to the seed's.  Importing the package loads only
:data:`FABRIC_MODES` and :func:`default_fabric_mode`; the four classes
load their submodule on first access (:func:`repro.lazy_exports`), so
an unarmed run never imports the model.
"""

import os

from .. import lazy_exports

__getattr__ = lazy_exports(globals(), {
    ".topology": ("ClosFabricTopology", "FabricLink"),
    ".network": ("FabricFlow", "FabricNetwork"),
})

#: Accepted ``REPRO_FABRIC`` values and the mode each selects.
FABRIC_MODES = ("flat", "dcqcn")


def default_fabric_mode():
    """The fabric mode ``REPRO_FABRIC`` selects, or ``None`` (off).

    ``flat`` arms topology + queues without congestion control (the
    incast-collapse strawman); ``dcqcn`` (or ``1``) adds the rate
    loop.  Unset / ``0`` / ``off`` keep the layer disarmed.
    """
    raw = os.environ.get("REPRO_FABRIC", "").strip().lower()
    if raw in ("", "0", "off", "none"):
        return None
    if raw == "1":
        return "dcqcn"
    if raw in FABRIC_MODES:
        return raw
    raise ValueError("REPRO_FABRIC=%r (expected one of %s, 0/1)"
                     % (raw, "/".join(FABRIC_MODES)))


__all__ = [
    "ClosFabricTopology",
    "FabricLink",
    "FabricFlow",
    "FabricNetwork",
    "FABRIC_MODES",
    "default_fabric_mode",
]
