"""Edge detection over suspicion signals.

The health monitor raises suspicion repeatedly — every missed heartbeat,
every slow EWMA sample — but reactions to suspicion (the lineage layer's
copy-out sweep, for one) must fire once per *episode*, not once per
signal.  :class:`SuspicionGate` is that hysteresis: a key "rises" on the
first signal and stays risen until explicitly cleared (re-admission),
so repeated signals inside one outage are deduplicated.

Pure state, like everything in this package: no events, no randomness.
"""


class SuspicionGate:
    """Per-key rising-edge detector with explicit reset."""

    def __init__(self):
        self._high = set()

    def rise(self, key):
        """Signal suspicion of ``key``; True only on the rising edge."""
        if key in self._high:
            return False
        self._high.add(key)
        return True

    def clear(self, key):
        """End the episode (the key recovered); True if it was high."""
        if key in self._high:
            self._high.discard(key)
            return True
        return False

    def is_high(self, key):
        """True while ``key``'s suspicion episode is open."""
        return key in self._high

    def __len__(self):
        return len(self._high)
