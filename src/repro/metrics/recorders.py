"""Measurement collectors attached to simulated components.

These are plain data sinks: components call ``sample``/``incr``/
``mark_down`` at simulation time, and experiment harnesses read
summaries afterwards.
"""

from collections import defaultdict


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


class CounterSet(defaultdict):
    """A named bag of monotonically increasing counters.

    A ``defaultdict(int)``: an unknown name reads 0, and a hot path
    counts with ``counters[name] += 1`` instead of a call.  Like any
    dict it is falsy while empty, so test it with ``is None``, never by
    truth value.
    """

    __slots__ = ()

    def __init__(self):
        super().__init__(int)

    def incr(self, name, amount=1):
        """Increase a named counter."""
        self[name] += amount

    def as_dict(self):
        """A detached plain-dict snapshot of all counters."""
        return dict(self)

    def reset(self):
        """Zero every counter."""
        self.clear()


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
