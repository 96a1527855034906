"""Fn serverless framework integration (§5): LB, invokers, policies, chains."""

from .flow import FlowService
from .framework import FnCluster
from .functions import FnFunction, InvocationRecord
from .health import HealthMonitor
from .invoker import Invoker
from .policies import (
    ColdPolicy,
    CriuPolicy,
    FnCachingPolicy,
    IdealCachePolicy,
    MitosisPolicy,
    StartPolicy,
)
from .scheduler import ChainResult, DagScheduler

__all__ = [
    "ChainResult",
    "ColdPolicy",
    "CriuPolicy",
    "DagScheduler",
    "FlowService",
    "FnCachingPolicy",
    "FnCluster",
    "FnFunction",
    "HealthMonitor",
    "IdealCachePolicy",
    "InvocationRecord",
    "Invoker",
    "MitosisPolicy",
    "StartPolicy",
]
