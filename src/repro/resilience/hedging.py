"""Hedge-delay estimation for cloned remote reads.

The request-cloning recipe: issue the clone only after waiting long
enough that the primary is *probably* a straggler — the standard choice
is the observed tail percentile of recent latencies, so hedges stay rare
(~1%) in the healthy case and fire quickly once the path degrades.
Until enough samples accumulate a conservative initial delay is used.
"""

from collections import deque

from .. import params
from ..metrics import percentile


class HedgeTracker:
    """Windowed latency observations -> p99-derived hedge delay."""

    def __init__(self, initial_delay=None, window=None, min_samples=None):
        self.initial_delay = (params.HEDGE_INITIAL_DELAY
                              if initial_delay is None
                              else float(initial_delay))
        self.min_samples = (params.HEDGE_MIN_SAMPLES if min_samples is None
                            else int(min_samples))
        self._samples = deque(maxlen=(params.HEDGE_WINDOW if window is None
                                      else int(window)))

    def record(self, latency):
        """Feed one completed-read latency into the window."""
        self._samples.append(latency)

    def delay(self):
        """The current hedge trigger delay."""
        if len(self._samples) < self.min_samples:
            return self.initial_delay
        return percentile(list(self._samples), params.HEDGE_PERCENTILE)

    def __len__(self):
        return len(self._samples)
