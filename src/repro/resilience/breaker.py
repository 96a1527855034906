"""A deterministic circuit breaker over the simulated clock.

Guards a call path to one peer: after ``failure_threshold`` consecutive
failures the breaker *opens* and the caller fails fast instead of
hammering a gray peer.  Once ``cooldown`` simulated time has elapsed the
breaker is *half-open*: exactly one probe call is admitted; its outcome
closes the breaker (success) or re-opens it for another cooldown
(failure).

State is derived lazily from the clock — an open breaker whose cooldown
elapsed reports ``half-open`` without needing a scheduled event, so
breakers add zero events to the simulation and replay deterministically.
"""

from .. import params


class CircuitBreaker:
    """Closed -> open -> half-open state machine, sim-time cooldowns."""

    def __init__(self, name, failure_threshold=None, cooldown=None):
        self.name = name
        self.failure_threshold = (params.BREAKER_FAILURE_THRESHOLD
                                  if failure_threshold is None
                                  else int(failure_threshold))
        self.cooldown = (params.BREAKER_COOLDOWN if cooldown is None
                         else float(cooldown))
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown <= 0:
            raise ValueError("cooldown must be > 0")
        self._state = "closed"
        self._failures = 0
        self._opened_at = None
        self._probe_inflight = False
        #: (time, from_state, to_state) transition log for experiments
        #: and the quiescence sanitizer.
        self.transitions = []

    def state_at(self, now):
        """The observable state at simulated time ``now``."""
        if (self._state == "open"
                and now >= self._opened_at + self.cooldown):
            return "half-open"
        return self._state

    def allow(self, now):
        """May a call proceed right now?

        Closed: always.  Open: never (fail fast).  Half-open: exactly one
        probe at a time — the first caller after the cooldown is admitted,
        concurrent callers are rejected until the probe resolves.
        """
        state = self.state_at(now)
        if state == "closed":
            return True
        if state == "open":
            return False
        if self._probe_inflight:
            return False
        if self._state == "open":  # materialize the lazy transition
            self._transition(now, "half-open")
        self._probe_inflight = True
        return True

    def record_success(self, now):
        """A call to the peer completed: close (from any state)."""
        self._probe_inflight = False
        self._failures = 0
        if self.state_at(now) != "closed":
            self._transition(now, "closed")
        self._opened_at = None

    def record_failure(self, now):
        """A call to the peer failed: count toward opening (or re-open)."""
        state = self.state_at(now)
        if state == "half-open":
            # The probe failed: straight back to open for another cooldown.
            self._probe_inflight = False
            self._transition(now, "open")
            self._opened_at = now
            return
        if state == "open":
            return  # fast-failed callers don't re-count
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._transition(now, "open")
            self._opened_at = now

    def _transition(self, now, to_state):
        self.transitions.append((now, self._state, to_state))
        self._state = to_state

    def __repr__(self):
        return "<CircuitBreaker %s %s failures=%d>" % (
            self.name, self._state, self._failures)
