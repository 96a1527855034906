"""Measurement collectors attached to simulated components.

These are plain data sinks: components call ``record``/``sample``/``incr``
at simulation time, and experiment harnesses read summaries afterwards.
"""

from collections import defaultdict

from . import stats


class LatencyRecorder:
    """Collects individual latency observations (microseconds)."""

    def __init__(self, name=""):
        self.name = name
        self.values = []

    def record(self, value):
        """Add one observation."""
        self.values.append(value)

    def __len__(self):
        return len(self.values)

    @property
    def count(self):
        """Number of observations."""
        return len(self.values)

    def mean(self):
        """Arithmetic mean of the observations."""
        return stats.mean(self.values)

    def geometric_mean(self):
        """Geometric mean of the observations."""
        return stats.geometric_mean(self.values)

    def percentile(self, pct):
        """The pct-th percentile of the observations."""
        return stats.percentile(self.values, pct)

    def p50(self):
        """Median latency."""
        return self.percentile(50)

    def p99(self):
        """99th-percentile latency."""
        return self.percentile(99)

    def max(self):
        """Largest observation."""
        if not self.values:
            raise ValueError("max of empty sequence")
        return max(self.values)

    def min(self):
        """Smallest observation."""
        if not self.values:
            raise ValueError("min of empty sequence")
        return min(self.values)

    def cdf(self, num_points=100):
        """(value, fraction) CDF points over the observations."""
        return stats.cdf_points(self.values, num_points)

    def summary(self):
        """Dict of the headline statistics (empty recorder -> zeros)."""
        if not self.values:
            return {"name": self.name, "count": 0}
        return {
            "name": self.name,
            "count": self.count,
            "mean": self.mean(),
            "p50": self.p50(),
            "p99": self.p99(),
            "min": self.min(),
            "max": self.max(),
        }


class TimeSeries:
    """(time, value) samples, e.g. memory usage over a trace replay."""

    def __init__(self, name=""):
        self.name = name
        self.samples = []

    def sample(self, time, value):
        """Append one (time, value) sample."""
        self.samples.append((time, value))

    def __len__(self):
        return len(self.samples)

    def values(self):
        """Sample values, in time order."""
        return [v for _, v in self.samples]

    def times(self):
        """Sample times, in order."""
        return [t for t, _ in self.samples]

    def max(self):
        """Largest sampled value."""
        return max(self.values())

    def value_at(self, time):
        """Most recent sample at or before ``time`` (step interpolation)."""
        best = None
        for t, v in self.samples:
            if t <= time:
                best = v
            else:
                break
        if best is None:
            raise ValueError("no sample at or before %r" % (time,))
        return best


class ThroughputMeter:
    """Counts completion events and reports windowed or overall rates."""

    def __init__(self, name=""):
        self.name = name
        self.events = []

    def mark(self, time):
        """Record one completion at ``time``."""
        self.events.append(time)

    @property
    def count(self):
        """Number of completions recorded."""
        return len(self.events)

    def rate(self, start=None, end=None):
        """Events per microsecond over [start, end] (defaults to full span)."""
        if not self.events:
            return 0.0
        if start is None:
            start = min(self.events)
        if end is None:
            end = max(self.events)
        if end <= start:
            return 0.0
        inside = sum(1 for t in self.events if start <= t <= end)
        return inside / (end - start)

    def windowed(self, window):
        """List of (window_start, count) over the observed span."""
        if not self.events:
            return []
        start = min(self.events)
        end = max(self.events)
        bins = defaultdict(int)
        for t in self.events:
            bins[int((t - start) // window)] += 1
        num = int((end - start) // window) + 1
        return [(start + i * window, bins.get(i, 0)) for i in range(num)]


class CounterSet:
    """A named bag of monotonically increasing counters."""

    def __init__(self):
        self._counts = defaultdict(int)

    def incr(self, name, amount=1):
        """Increase a named counter."""
        self._counts[name] += amount

    def __getitem__(self, name):
        return self._counts[name]

    def as_dict(self):
        """A snapshot dict of all counters."""
        return dict(self._counts)

    def reset(self):
        """Zero every counter."""
        self._counts.clear()


class RecoveryLog:
    """Outage bookkeeping: down/up marks per component, MTTR, counters.

    Components are identified by opaque hashable keys (e.g.
    ``("machine", 3)`` or ``("invoker", 0)``).  The first ``mark_down``
    for a component opens an outage; the matching ``mark_up`` closes it
    and records the repair time.  Mean time to repair (MTTR) summarizes
    the closed outages.
    """

    def __init__(self, name=""):
        self.name = name
        self.counters = CounterSet()
        #: component -> time the open outage started.
        self._down_since = {}
        #: (component, down_at, up_at) for every closed outage.
        self.repairs = []

    def mark_down(self, component, time):
        """Open an outage for ``component`` (no-op if already open)."""
        if component not in self._down_since:
            self._down_since[component] = time
            self.counters.incr("outages")

    def mark_up(self, component, time):
        """Close ``component``'s outage; returns the repair time or None."""
        down_at = self._down_since.pop(component, None)
        if down_at is None:
            return None
        self.repairs.append((component, down_at, time))
        return time - down_at

    def mttr(self):
        """Mean time to repair over closed outages (None if none closed)."""
        if not self.repairs:
            return None
        return sum(up - down for _, down, up in self.repairs) / len(self.repairs)

    def summary(self):
        """Headline recovery numbers as a dict."""
        return {
            "name": self.name,
            "outages": self.counters["outages"],
            "repaired": len(self.repairs),
            "still_down": len(self._down_since),
            "mttr": self.mttr(),
        }
