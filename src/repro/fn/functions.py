"""Registered Fn functions and invocation records."""

from itertools import count


class FnFunction:
    """One function registered with the platform (§5).

    Wraps the workload profile; the platform generates a Docker image
    encapsulating the code with the FDK when the function is registered.
    """

    def __init__(self, profile):
        self.profile = profile
        self.name = profile.name
        self.image = profile.image

    def __repr__(self):
        return "<FnFunction %s>" % self.name


class InvocationRecord:
    """The outcome of one function invocation."""

    _ids = count(1)

    def __init__(self, function_name, submitted_at, started_at, finished_at,
                 start_kind, invoker_index, outcome="ok", attempts=1):
        self.invocation_id = next(InvocationRecord._ids)
        self.function_name = function_name
        self.submitted_at = submitted_at
        self.started_at = started_at
        self.finished_at = finished_at
        #: 'cold' | 'warm-cache' | 'criu' | 'mitosis' | 'cold-degraded'
        self.start_kind = start_kind
        self.invoker_index = invoker_index
        #: 'ok' (first attempt), 'recovered' (a retry or degraded start
        #: succeeded after a fault), 'shed' (deadline or retry budget ran
        #: out — the platform refused to run it late), or 'lost' (every
        #: attempt failed — loud, never silent).
        self.outcome = outcome
        #: How many dispatch attempts this invocation took.
        self.attempts = attempts

    @property
    def latency(self):
        """End-to-end invocation latency (what Figs. 12/13 plot)."""
        return self.finished_at - self.submitted_at

    @property
    def startup_latency(self):
        """Dispatch + container-start portion of the latency."""
        return self.started_at - self.submitted_at

    @property
    def execution_latency(self):
        """Function execution portion of the latency."""
        return self.finished_at - self.started_at
