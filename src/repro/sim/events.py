"""Core event and process types for the discrete-event kernel.

The kernel follows the classic generator-coroutine design: simulated
activities are written as Python generators that ``yield`` events.  The
:class:`Process` wrapper drives the generator, resuming it whenever the
yielded event settles.  Events settle either successfully (``succeed``)
carrying a value, or exceptionally (``fail``) carrying an exception which is
thrown back into the waiting generator.
"""

from .errors import EventAlreadyTriggered, Interrupt, SimulationError

_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, becomes *triggered* once scheduled with a
    value or an exception, and *processed* after its callbacks have run.
    """

    # Events are the unit allocation of the simulation: a 10K-fork replay
    # creates tens of millions of them, so every subclass is slotted.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_abandon")

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        #: Optional hook, called as ``hook(event)`` when a waiter abandons
        #: this event (its process was interrupted while waiting).
        #: Resource/Store grants use it to give their slot/item back
        #: instead of leaking it.  The hook must not close over the event
        #: itself: that cycle is freed only by the cyclic GC.
        self._abandon = None

    def __repr__(self):
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return "<%s %s at %#x>" % (type(self).__name__, state, id(self))

    @property
    def triggered(self):
        """True once the event has a value or an exception."""
        return self._value is not _PENDING

    @property
    def processed(self):
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self):
        """True if the event settled successfully.

        Only meaningful once :attr:`triggered` is true.
        """
        return bool(self._ok)

    @property
    def value(self):
        """The event's value (or exception, for failed events)."""
        if self._value is _PENDING:
            raise SimulationError("event %r is still pending" % self)
        return self._value

    def succeed(self, value=None):
        """Settle the event successfully and schedule its callbacks."""
        if self.triggered:
            raise EventAlreadyTriggered("cannot succeed %r twice" % self)
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception):
        """Settle the event with an exception and schedule its callbacks.

        The exception is thrown into every process waiting on the event.  If
        nobody waits, the environment raises it at the end of the step unless
        the event is :meth:`defused`.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception, got %r" % (exception,))
        if self.triggered:
            raise EventAlreadyTriggered("cannot fail %r twice" % self)
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def defuse(self):
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    # Composition -----------------------------------------------------------
    # Chained ``a & b & c`` flattens into ONE condition over [a, b, c]
    # rather than a nested AllOf(AllOf(a, b), c): the intermediate is
    # unobserved (nothing ever waits on it), so nesting would only add a
    # callback hop and an extra heap event per link.  Mixed chains such as
    # ``(a | b) & c`` keep the inner condition as a constituent.
    def __and__(self, other):
        return _chain(self.env, AllOf, self, other)

    def __or__(self, other):
        return _chain(self.env, AnyOf, self, other)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("_delay",)

    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise ValueError("negative delay %r" % (delay,))
        super().__init__(env)
        self._delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def __repr__(self):
        return "<Timeout delay=%r at %#x>" % (self._delay, id(self))


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env, process):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env.schedule(self, priority=True)


class Process(Event):
    """Drives a generator; itself an event that fires when the body returns.

    The process's value is the generator's return value; if the body raises,
    the process fails with that exception (propagating to any waiter).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env, generator):
        if not hasattr(generator, "throw"):
            raise TypeError("expected a generator, got %r" % (generator,))
        super().__init__(env)
        self._generator = generator
        self._target = Initialize(env, self)

    def __repr__(self):
        return "<Process %s at %#x>" % (
            getattr(self._generator, "__name__", self._generator), id(self))

    @property
    def is_alive(self):
        """True while the process body has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError("%r has terminated and cannot be interrupted" % self)
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from whatever the process is waiting on, so that when the
        # abandoned event later fires it does not resume a dead generator.
        target = self._target
        if target is not None and not target.processed:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            if target._abandon is not None:
                target._abandon(target)
            # An abandoned event's failure has no owner anymore; keep it
            # from crashing the run loop as an unhandled failure.
            target.defuse()
        self._target = None
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        self.env.schedule(interrupt_event, priority=True)

    def _resume(self, event):
        self.env._active_process = self
        # Not waiting on anything while the body runs; dropping the old
        # target here (instead of at the next yield) also releases the
        # last reference that would keep a fired Timeout out of the pool.
        self._target = None
        while True:
            if event._ok:
                try:
                    target = self._generator.send(event._value)
                except StopIteration as stop:
                    self._settle(True, stop.value)
                    break
                except BaseException as exc:
                    self._settle(False, exc)
                    break
            else:
                # Throw the failure into the generator. Mark it defused: the
                # process is now responsible for it.  The original exception
                # object is propagated as-is — rebuilding it from .args would
                # strip keyword-only parameters and carried attributes (the
                # typed resilience errors rely on both).
                event._defused = True
                try:
                    target = self._generator.throw(event._value)
                except StopIteration as stop:
                    self._settle(True, stop.value)
                    break
                except BaseException as exc:
                    self._settle(False, exc)
                    break

            if target is None:
                # "yield" with no event: continue immediately next step.
                target = self.env.timeout(0)
            if not isinstance(target, Event):
                exc = SimulationError(
                    "process %r yielded a non-event: %r" % (self, target))
                try:
                    self._generator.throw(exc)
                except StopIteration as stop:
                    self._settle(True, stop.value)
                except BaseException as body_exc:
                    self._settle(False, body_exc)
                break
            if target.callbacks is None:
                # Already settled and delivered: loop and feed it straight in.
                event = target
                continue
            target.callbacks.append(self._resume)
            self._target = target
            break
        self.env._active_process = None

    def _settle(self, ok, value):
        if ok:
            self.succeed(value)
        else:
            if not isinstance(value, BaseException):  # pragma: no cover
                value = SimulationError(repr(value))
            self.fail(value)


class Condition(Event):
    """Waits on several events; settles when ``check`` says so.

    Fails immediately if any constituent fails first.
    """

    __slots__ = ("_events", "_check", "_settled")

    def __init__(self, env, events, check):
        super().__init__(env)
        self._events = list(events)
        self._check = check
        self._settled = []
        for event in self._events:
            if not isinstance(event, Event):
                raise TypeError("condition over non-event %r" % (event,))
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.processed:
                self._on_settle(event)
            else:
                event.callbacks.append(self._on_settle)
        # A waiter interrupted mid-condition abandons the whole tree: pass
        # the abandonment down so resource grants / store getters queued
        # under an AnyOf give their slot back instead of leaking it.  The
        # plain function, not the bound method, which would be a cycle.
        self._abandon = Condition._abandon_constituents

    def _abandon_constituents(self):
        for event in self._events:
            if not event.processed and event._abandon is not None:
                event._abandon(event)

    def _on_settle(self, event):
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            # Fail with the constituent's exception object itself: cloning
            # via type(exc)(*exc.args) would lose kwargs-only parameters
            # and any attributes attached after construction.
            self.fail(event._value)
            return
        self._settled.append(event)
        if self._check(self._events, len(self._settled)):
            self.succeed(self._collect())

    def _collect(self):
        return {e: e._value for e in self._settled}

    def _absorb_into(self, cls):
        """Release the constituents for flattening into a new ``cls``, or
        return None when this condition must stay a constituent itself.

        Only an unobserved pending condition of the exact same type may be
        absorbed: once anything waits on it (or it has settled), its own
        identity is load-bearing and flattening would change behavior.
        """
        if type(self) is not cls or self.triggered or self.callbacks:
            return None
        for event in self._events:
            callbacks = event.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._on_settle)
                except ValueError:  # pragma: no cover - defensive
                    pass
        return self._events


class AllOf(Condition):
    """Settles once every constituent event has settled successfully."""

    __slots__ = ()

    def __init__(self, env, events):
        super().__init__(env, events, lambda events, count: count >= len(events))


class AnyOf(Condition):
    """Settles as soon as at least one constituent event settles."""

    __slots__ = ()

    def __init__(self, env, events):
        super().__init__(env, events, lambda events, count: count >= 1)


def _chain(env, cls, left, right):
    """Build ``cls`` over ``left``/``right``, absorbing unobserved pending
    intermediates of the same type so ``a & b & c`` yields one flat
    condition over three events instead of a nested two-level tree."""
    events = []
    for side in (left, right):
        absorbed = side._absorb_into(cls) if isinstance(side, Condition) else None
        if absorbed is None:
            events.append(side)
        else:
            events.extend(absorbed)
    return cls(env, events)
