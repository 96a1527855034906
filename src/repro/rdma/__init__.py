"""Simulated RDMA stack: RNICs, RC/DC/UD transports, MRs, FaSST RPC.

The co-design surface MITOSIS relies on: one-sided READs into remote
physical memory, dynamic connected transport with per-target revocation,
and connection-less datagram RPC.
"""

from .dct import DcTarget, DcTargetPool, DctKey
from .errors import ConnectionError_, RdmaError, RegistrationError, RemoteAccessError
from .fabric import RdmaFabric
from .mr import MemoryRegion, MrTable
from .nic import Rnic
from .qp import DcQp, RcQp, ReadLegs, UdQp, read_legs
from .rpc import RpcEndpoint, RpcError, RpcRuntime, RpcTimeout

__all__ = [
    "ConnectionError_",
    "DcQp",
    "DcTarget",
    "DcTargetPool",
    "DctKey",
    "MemoryRegion",
    "MrTable",
    "RcQp",
    "RdmaError",
    "RdmaFabric",
    "ReadLegs",
    "RegistrationError",
    "RemoteAccessError",
    "Rnic",
    "RpcEndpoint",
    "RpcError",
    "RpcRuntime",
    "RpcTimeout",
    "UdQp",
    "read_legs",
]
