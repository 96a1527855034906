"""Swift-style RDMA connection control plane (``REPRO_CONNPLANE=1``).

The paper's own constants make connection setup the scaling wall: a 4 ms
RC handshake, ~700 RCQP creations per second per machine, and one
descriptor-query RPC per fork (§4.2).  Swift ("Rethinking RDMA Control
Plane for Elastic Computing") attacks exactly this with connection
caching and ahead-of-demand handle distribution; rFaaS shows advertised
descriptors composing with leases.  This package is that control plane
for the simulated cluster:

* :class:`~repro.connplane.pool.QpPool` — per-machine warm RC QP cache
  with LRU eviction, in-use pinning, refcounted sharing across
  co-located children, and doorbell-batched single-flight creation.
* :class:`~repro.connplane.advert.AdvertCache` — per-invoker cache of
  pushed seed advertisements (fork meta, DCT handles, rkeys, descriptor
  body), replacing the per-fork key-fetch RPC on the hit path.
* :class:`~repro.connplane.plane.ConnPlane` — the cluster-wide plane:
  advertisement pushes on seed (re-)election, heartbeat-piggybacked
  refresh, suspicion-aware prefill, and invalidation on crash/fence.

Armed via ``REPRO_CONNPLANE=1`` or :meth:`FnCluster.enable_connplane`;
off (the default) every hook is a single ``is None`` test and the event
sequence is byte-identical to the seed.  Importing the package loads only
:func:`default_connplane`; every other name loads its submodule on first
access (:func:`repro.lazy_exports`), so an unarmed run never imports the
plane.
"""

from .. import lazy_exports, params

__getattr__ = lazy_exports(globals(), {
    ".advert": ("AdvertCache", "AdvertEntry"),
    ".plane": ("ConnPlane",),
    ".pool": ("QpLease", "QpPool"),
})

__all__ = [
    "AdvertCache", "AdvertEntry", "ConnPlane", "QpLease", "QpPool",
    "default_connplane",
]


def default_connplane():
    """True when ``REPRO_CONNPLANE`` asks for the connection plane.

    An off spelling (:func:`repro.params.env_flag`) keeps the layer
    unarmed (the seed behaviour); anything else arms it.
    """
    return params.env_flag("REPRO_CONNPLANE")
