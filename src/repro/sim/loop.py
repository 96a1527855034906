"""The discrete-event environment: clock, queue, and run loop.

Simulated time is a float in **microseconds** throughout this project; the
helpers in :mod:`repro.params` define ``US``/``MS``/``SEC`` multipliers.
"""

from heapq import heappop, heappush
from itertools import count
from sys import getrefcount

from .errors import EmptySchedule, SimulationError, StopSimulation
from .events import AllOf, AnyOf, Event, Process, Timeout

#: Upper bound on the recycled-:class:`Timeout` free list.  Big enough to
#: cover the in-flight timeouts of a 10K-fork replay's steady state, small
#: enough that a pathological burst cannot pin memory forever.
_TIMEOUT_POOL_MAX = 1024


class Environment:
    """Execution environment for a single simulation.

    Holds the event queue and the simulated clock, creates processes and
    primitive events, and advances time in :meth:`run`/:meth:`step`.
    """

    def __init__(self):
        self._now = 0.0
        #: The pending events: a :mod:`heapq` binary heap of
        #: ``(when, priority, eid, event)`` entries.
        self._queue = []
        #: Event ids break same-timestamp ties FIFO.
        self._eid = count()
        self._active_process = None
        #: Total events processed by :meth:`step` — the denominator for the
        #: wall-clock benchmark harness's events/sec metric.
        self.events_processed = 0
        # Free list of fired Timeout instances safe to re-arm (the hottest
        # allocation in the kernel: every wire delay and every bare yield).
        self._timeout_pool = []
        #: Optional :class:`repro.trace.Tracer`.  ``None`` (the default)
        #: keeps every instrumentation guard a single attribute test and
        #: the untraced event sequence byte-identical.
        self.tracer = None

    # Clock -----------------------------------------------------------------
    @property
    def now(self):
        """Current simulated time (microseconds)."""
        return self._now

    @property
    def active_process(self):
        """The process currently being resumed, if any."""
        return self._active_process

    # Event factories ---------------------------------------------------------
    def event(self):
        """Create a pending :class:`Event` to be settled manually."""
        return Event(self)

    def timeout(self, delay, value=None):
        """An event that fires ``delay`` microseconds from now.

        Reuses a pooled instance when one is free (see :meth:`step`);
        otherwise allocates.  Either way the caller gets a freshly-armed,
        not-yet-fired timeout: a pooled one is reset field by field
        exactly as ``Timeout.__init__`` would set it, and queued the way
        :meth:`schedule` would queue it.  Only instances the run loop
        proved unreferenced enter the pool, so a settled timeout some
        process still holds is never resurrected.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError("negative delay %r" % (delay,))
            timeout = pool.pop()
            timeout.callbacks = []
            timeout._value = value
            timeout._ok = True
            timeout._defused = False
            timeout._abandon = None
            timeout._delay = delay
            heappush(self._queue,
                     (self._now + delay, 1, next(self._eid), timeout))
            return timeout
        return Timeout(self, delay, value)

    def timeout_at(self, when):
        """An event that fires at the absolute time ``when`` (not before now).

        For a wake-up computed as a sum of legs, such as
        ``RdmaFabric.stream``'s ``(start + service) + then``: the relative
        ``timeout(when - now)`` would fire at ``now + (when - now)``, which
        float rounding can move off ``when``.  Shares :meth:`timeout`'s
        pool and re-arms a pooled instance the same way.
        """
        delay = when - self._now
        if delay < 0:
            raise ValueError("wake-up %r is before now (%r)" % (when, self._now))
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout.callbacks = []
            timeout._defused = False
            timeout._abandon = None
        else:
            timeout = Timeout.__new__(Timeout)
            Event.__init__(timeout, self)
        timeout._ok = True
        timeout._value = None
        timeout._delay = delay
        heappush(self._queue, (when, 1, next(self._eid), timeout))
        return timeout

    def process(self, generator):
        """Start a new process driving ``generator``.

        With a tracer installed and enabled the new process inherits the
        spawner's current span, so causality survives the spawn boundary
        (RPC attempts, hedge legs, hosted invocations).
        """
        process = Process(self, generator)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.on_spawn(process)
        return process

    def all_of(self, events):
        """An event that fires when all given events succeed."""
        return AllOf(self, events)

    def any_of(self, events):
        """An event that fires when any given event settles."""
        return AnyOf(self, events)

    # Scheduling --------------------------------------------------------------
    def schedule(self, event, delay=0.0, priority=False):
        """Queue ``event``'s callbacks to run ``delay`` from now.

        ``priority`` events sort ahead of normal events at the same time
        (used for process initialization and interrupts).
        """
        if delay < 0:
            raise ValueError("negative delay %r" % (delay,))
        heappush(self._queue, (self._now + delay, 0 if priority else 1,
                               next(self._eid), event))

    def peek(self):
        """Time of the next scheduled event, or ``inf`` if queue is empty."""
        queue = self._queue
        return queue[0][0] if queue else float("inf")

    def step(self):
        """Process the single next event, advancing the clock to it."""
        try:
            when, _, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("event queue is empty")
        if when < self._now:  # pragma: no cover - guarded by schedule()
            raise SimulationError("time went backwards: %r < %r" % (when, self._now))
        self._now = when
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failure nobody was waiting for: surface it loudly.
            raise event._value
        # Recycle fired timeouts nobody can observe anymore.  The refcount
        # gate is the safety proof: 2 == our local + getrefcount's argument,
        # so any process, condition, or closure still holding the event
        # keeps it out of the pool and settled events are never resurrected.
        if (type(event) is Timeout
                and len(self._timeout_pool) < _TIMEOUT_POOL_MAX
                and getrefcount(event) == 2):
            self._timeout_pool.append(event)

    def instrument_step(self, wrap):
        """Shadow :meth:`step` with ``wrap(self.step)`` on this instance.

        The hook for observing every processed event (the golden digests'
        per-step hash uses it): ``wrap`` receives the bound original and
        must return a callable run in its place.  Because :meth:`run`
        binds ``step = self.step`` once on entry, install the wrapper
        *before* calling :meth:`run`.  With no wrapper installed there is
        zero hot-path cost — the method only exists on the class, and
        ``self.step`` resolves as always.
        """
        if "step" in self.__dict__:
            raise SimulationError("step is already instrumented")
        self.__dict__["step"] = wrap(Environment.step.__get__(self))
        return self.__dict__["step"]

    def uninstrument_step(self):
        """Remove an :meth:`instrument_step` wrapper (idempotent)."""
        self.__dict__.pop("step", None)

    def run(self, until=None):
        """Run until ``until`` (an event or a time), or until the queue dries.

        * ``until`` is ``None``  — run until no events remain.
        * ``until`` is an :class:`Event` — run until it settles; returns its
          value (raising if it failed).
        * ``until`` is a number — run until the clock reaches it.
        """
        if until is None:
            stop_at = float("inf")
            stop_event = None
        elif isinstance(until, Event):
            stop_event = until
            stop_at = float("inf")
            if until.triggered:
                if until._ok:
                    return until._value
                raise until._value
            until.callbacks.append(_stop_callback)
        else:
            stop_at = float(until)
            stop_event = None
            if stop_at < self._now:
                raise ValueError(
                    "until (%r) must not be in the past (now=%r)" % (stop_at, self._now))

        queue = self._queue
        step = self.step
        try:
            if stop_at == float("inf"):
                # Hot loop: no deadline to poll, just drain.
                while queue:
                    step()
            else:
                while queue:
                    if queue[0][0] > stop_at:
                        self._now = stop_at
                        return None
                    step()
        except StopSimulation as stop:
            return stop.value
        if stop_event is not None:
            raise EmptySchedule(
                "no more events but %r never settled" % (stop_event,))
        if stop_at != float("inf"):
            self._now = stop_at
        return None


def _stop_callback(event):
    if event._ok:
        raise StopSimulation(event._value)
    event._defused = True
    raise event._value
