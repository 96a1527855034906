"""Simulated kernel substrate: frames, page tables, VMAs, faults, fork.

This is the OS layer MITOSIS extends.  It exposes the two extension points
the paper adds to Linux: a pluggable *remote pager* consulted for
remote-bit PTEs, and *reclaim hooks* that fire before page reclaim so the
access-control layer can revoke RDMA permissions first.
"""

from .cgroups import Cgroup, CgroupPool, NamespaceSet
from .errors import (
    BadDescriptorError,
    KernelError,
    OomKilled,
    SegmentationFault,
    TaskExited,
)
from .frames import Frame, FrameAllocator
from .kernel import (
    FORK_LOCAL_BASE,
    SWAP_IN_LATENCY,
    SWAP_OUT_LATENCY,
    Kernel,
    SwapStore,
)
from .page_table import PageTable, Pte
from .process import FileDescriptor, Registers, Task
from .vma import AddressSpace, Vma, VmaKind

__all__ = [
    "AddressSpace",
    "BadDescriptorError",
    "Cgroup",
    "CgroupPool",
    "FORK_LOCAL_BASE",
    "FileDescriptor",
    "Frame",
    "FrameAllocator",
    "Kernel",
    "KernelError",
    "NamespaceSet",
    "OomKilled",
    "PageTable",
    "Pte",
    "Registers",
    "SWAP_IN_LATENCY",
    "SWAP_OUT_LATENCY",
    "SegmentationFault",
    "SwapStore",
    "Task",
    "TaskExited",
    "Vma",
    "VmaKind",
]
