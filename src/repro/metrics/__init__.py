"""Measurement utilities: counters, time series, recovery logs, stats.

Invocation latencies live in ``FnCluster.records`` and simulated phase
timings in :mod:`repro.trace` spans; this package holds what neither
covers.
"""

from .recorders import CounterSet, RecoveryLog, TimeSeries
from .stats import cdf_points, mean, percentile

__all__ = [
    "CounterSet",
    "RecoveryLog",
    "TimeSeries",
    "cdf_points",
    "mean",
    "percentile",
]
