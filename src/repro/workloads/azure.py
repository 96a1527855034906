"""Synthetic Azure-Functions spike traces (Fig. 1).

The paper analyzes two production functions from the Azure Functions
trace [57] whose invocation frequency fluctuates up to 33,000x within a
minute: Func 660323 (needs up to 31 machines) and Func 9a3e4e (up to 10).
The raw trace is not shipped here, so we regenerate per-minute invocation
series matching the published shape: long quiet baseline, a near-vertical
spike, then decay.
"""

import math

from .. import params


class SpikeTrace:
    """Per-minute invocation counts for one serverless function."""

    def __init__(self, name, minute_counts, exec_time_us):
        if not minute_counts:
            raise ValueError("trace needs at least one minute")
        self.name = name
        self.minute_counts = list(minute_counts)
        #: The function's typical execution time, used for the
        #: machines-required estimate (Fig. 1 bottom).
        self.exec_time_us = exec_time_us

    @property
    def minutes(self):
        """Trace length in minutes."""
        return len(self.minute_counts)

    @property
    def total_invocations(self):
        """Sum of all per-minute counts."""
        return sum(self.minute_counts)

    def peak_ratio(self):
        """Max over min of adjacent-minute frequency (the 33,000x claim)."""
        positive = [c for c in self.minute_counts if c > 0]
        if not positive:
            return 0.0
        return max(positive) / min(positive)

    def machines_required(self, cores=params.CORES_PER_MACHINE):
        """Per-minute least machines to run the load without stalling.

        Estimated as the paper does (§2.2): offered concurrency =
        arrival rate x execution time, divided by cores per machine.
        """
        required = []
        exec_seconds = self.exec_time_us / params.SEC
        for count in self.minute_counts:
            rate_per_sec = count / 60.0
            concurrency = rate_per_sec * exec_seconds
            required.append(max(1, math.ceil(concurrency / cores)))
        return required

    def arrival_times(self, streams, scale=1.0, burst_size=1):
        """Invocation timestamps (us) drawn from the per-minute counts.

        ``scale`` uniformly thins the trace so benchmarks can replay the
        same *shape* at laptop-friendly volume.  The trace's published
        granularity is one minute; within a minute, production arrivals
        are heavily clumped, so ``burst_size`` groups invocations into
        simultaneous bursts at uniform instants (burst_size=1 reproduces
        a uniform spread).  Burstiness is what defeats keep-alive caching
        and produces the paper's queueing effect (§6.2).
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        if burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        stream = "azure-%s" % self.name
        arrivals = []
        for minute, count in enumerate(self.minute_counts):
            n = int(round(count * scale))
            base = minute * params.MINUTE
            while n > 0:
                burst = min(burst_size, n)
                at = base + streams.uniform(stream, 0.0, params.MINUTE)
                arrivals.extend([at] * burst)
                n -= burst
        arrivals.sort()
        return arrivals


def func_660323():
    """The paper's heavier spike function: 33,000x, up to 31 machines."""
    counts = [3, 3, 3, 4, 3, 99000, 24000, 6000, 1500, 400, 90, 20, 5, 3, 3]
    # Execution time chosen so the peak minute needs 31 machines at
    # 24 cores/machine: (99000/60) * t / 24 = 31  =>  t ~= 0.45 s.
    return SpikeTrace("660323", counts, exec_time_us=0.448 * params.SEC)


def func_9a3e4e():
    """The paper's second spike function: up to 10 machines."""
    counts = [5, 6, 4, 5, 31000, 9000, 2400, 700, 150, 40, 10, 6, 5]
    # Peak minute needs 10 machines: (31000/60) * t / 24 = 10 => t ~= 0.46 s.
    return SpikeTrace("9a3e4e", counts, exec_time_us=0.46 * params.SEC)
