"""Causal span tracing over simulated time.

A :class:`Tracer` records explicit *spans* — named intervals of simulated
time with parent links, structured attributes, and point events — and
propagates the current span across the two boundaries where causality
would otherwise be lost:

* **process spawns** — :meth:`repro.sim.Environment.process` hands every
  new :class:`~repro.sim.events.Process` to :meth:`Tracer.on_spawn`, so a
  child process inherits the spawner's current span as its starting
  parent (RPC retry attempts, hedge legs, hosted invocations);
* **inline RPC / verb calls** — fail-free calls run inside the caller's
  generator, so the ordinary per-process span stack already nests them.

The tracer is **off by default**: ``Environment.tracer`` is ``None`` and
every instrumentation site guards with ``tracer is not None and
tracer.enabled``, keeping the untraced event sequence byte-identical and
the overhead to one attribute test (the perf harness gates the
installed-but-disabled worst case below 2% CPU time).  Set
``REPRO_TRACE=1`` to have the standard rigs (:class:`PrimitiveRig`,
:class:`FnCluster`) install a tracer via :func:`maybe_install`.
"""

from .. import params

__all__ = [
    "Span",
    "Tracer",
    "enabled_by_env",
    "maybe_install",
]


class Span:
    """A named interval of simulated time within one trace tree.

    Spans are context managers (``with tracer.start_span("x"):``) or can
    be held and closed explicitly with :meth:`end` — typically in a
    ``finally:`` so interrupts thrown into a generator still close them.
    """

    __slots__ = ("tracer", "name", "parent", "start", "end_time",
                 "attrs", "events", "children", "_ctx_key")

    def __init__(self, tracer, name, parent, start, attrs, ctx_key):
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.start = start
        self.end_time = None
        self.attrs = attrs
        self.events = []
        self.children = []
        self._ctx_key = ctx_key

    def __repr__(self):
        end = "open" if self.end_time is None else "%g" % self.end_time
        return "<Span %s [%g..%s] at %#x>" % (self.name, self.start, end,
                                              id(self))

    @property
    def ended(self):
        """True once :meth:`end` has stamped the closing time."""
        return self.end_time is not None

    @property
    def duration(self):
        """Simulated time covered by the span (requires it to be ended)."""
        if self.end_time is None:
            raise ValueError("span %r has not ended" % self.name)
        return self.end_time - self.start

    def set(self, **attrs):
        """Attach/overwrite structured attributes; returns the span."""
        self.attrs.update(attrs)
        return self

    def event(self, name, **attrs):
        """Record a point annotation at the current simulated time."""
        self.events.append((self.tracer.env.now, name, attrs))

    def end(self, **attrs):
        """Close the span at the current simulated time (idempotent)."""
        if self.end_time is None:
            if attrs:
                self.attrs.update(attrs)
            self.tracer._end_span(self)
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and "error" not in self.attrs:
            self.attrs["error"] = type(exc).__name__
        self.end()
        return False


class Tracer:
    """Records spans against an :class:`~repro.sim.Environment`.

    The *current* span is tracked per sim process (driver code — no
    active process — gets its own slot), and a freshly spawned process
    inherits the spawner's current span until it opens one of its own.
    """

    def __init__(self, env, enabled=True):
        self.env = env
        #: Master switch every guarded call site tests.  An installed but
        #: disabled tracer is the worst-case off path the perf gate times.
        self.enabled = enabled
        #: Every span ever started, in start order.
        self.spans = []
        #: Spans started with no parent (``root=True`` or no context).
        self.roots = []
        #: Global timeline instants ``(time, name, attrs)`` — injected
        #: faults, invoker wipes: things that are causes, not intervals.
        self.marks = []
        self._stacks = {}      # context key -> [open spans, innermost last]
        self._inherited = {}   # Process -> span inherited at spawn
        env.tracer = self

    # Context -----------------------------------------------------------

    def current(self):
        """The innermost open span of the active context, if any."""
        key = self.env.active_process
        stack = self._stacks.get(key)
        if stack:
            return stack[-1]
        return self._inherited.get(key)

    def on_spawn(self, process):
        """Called by ``Environment.process``: inherit the current span."""
        span = self.current()
        if span is not None:
            self._inherited[process] = span
            # A Process is itself an Event; its settle callback is the
            # cleanup hook, so the dict never outgrows live processes.
            process.callbacks.append(self._forget)

    def _forget(self, process):
        self._inherited.pop(process, None)
        self._stacks.pop(process, None)

    # Spans --------------------------------------------------------------

    def start_span(self, name, root=False, **attrs):
        """Open a span under the current context (or as a new root)."""
        key = self.env.active_process
        parent = None if root else self.current()
        span = Span(self, name, parent, self.env.now, attrs, key)
        self.spans.append(span)
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = []
        stack.append(span)
        return span

    def _end_span(self, span):
        span.end_time = self.env.now
        stack = self._stacks.get(span._ctx_key)
        if stack:
            if stack[-1] is span:
                stack.pop()
            else:
                try:
                    stack.remove(span)
                except ValueError:
                    pass
            if not stack:
                self._stacks.pop(span._ctx_key, None)

    # Annotations --------------------------------------------------------

    def mark(self, name, **attrs):
        """Stamp a global timeline instant (no span required)."""
        self.marks.append((self.env.now, name, attrs))

    def annotate(self, name, **attrs):
        """Event on the current span if one is open, else a global mark."""
        span = self.current()
        if span is not None:
            span.events.append((self.env.now, name, attrs))
        else:
            self.mark(name, **attrs)

    # Introspection ------------------------------------------------------

    def open_spans(self):
        """Spans not yet ended (should be empty at quiescence)."""
        return [span for span in self.spans if span.end_time is None]


def enabled_by_env():
    """True when ``REPRO_TRACE`` requests tracing for this run (any
    value but an off spelling, :func:`repro.params.env_flag`)."""
    return params.env_flag("REPRO_TRACE")


def maybe_install(env):
    """Install a tracer on ``env`` if ``REPRO_TRACE`` asks for one.

    Returns the environment's tracer (existing one wins) or ``None`` —
    the standard rigs call this so plain runs stay untraced and
    zero-cost while ``REPRO_TRACE=1`` traces any experiment unchanged.
    """
    if env.tracer is not None:
        return env.tracer
    if enabled_by_env():
        return Tracer(env)
    return None
