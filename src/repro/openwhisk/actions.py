"""OpenWhisk actions and activations.

OpenWhisk's execution model differs from Fn's in ways that matter for
startup: a *generic* runtime container is specialized to an action by an
explicit ``/init`` call (injecting user code into the language runtime),
and activations travel through a message bus to per-invoker worker loops.
"""

from itertools import count

from .. import params

#: Controller-side processing per activation (auth, routing, bookkeeping).
CONTROLLER_OVERHEAD = 0.5 * params.MS
#: Publishing an activation to the per-invoker topic (Kafka-style bus).
BUS_PUBLISH_LATENCY = 1.0 * params.MS
#: The /init cost: load + compile the user code inside the runtime.
DEFAULT_INIT_LATENCY = 55.0 * params.MS
#: Starting a *generic* (not yet specialized) runtime container.
STEMCELL_START_LATENCY = 120.0 * params.MS
#: OpenWhisk keeps specialized containers warm for minutes; we scale it
#: the same way Fn's keepalive is scaled in miniature replays.
WARM_KEEPALIVE = 60.0 * params.SEC


class Action:
    """One registered OpenWhisk action."""

    def __init__(self, profile):
        self.profile = profile
        self.name = profile.name
        self.image = profile.image

    def __repr__(self):
        return "<Action %s>" % self.name


class Activation:
    """One activation record (OpenWhisk's invocation unit)."""

    _ids = count(1)

    def __init__(self, action_name, submitted_at):
        self.activation_id = next(Activation._ids)
        self.action_name = action_name
        self.submitted_at = submitted_at
        self.started_at = None
        self.finished_at = None
        #: 'warm' | 'prewarm-init' | 'cold-init' | 'mitosis'
        self.start_kind = None
        self.invoker_index = None

    @property
    def latency(self):
        """End-to-end activation latency."""
        return self.finished_at - self.submitted_at

    @property
    def wait_time(self):
        """Queueing in the bus + invoker loop before the run began."""
        return self.started_at - self.submitted_at
