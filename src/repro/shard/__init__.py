"""The ``REPRO_SHARDS`` knob, kept so callers that guard it can refuse it.

The sharded fork rig that read this knob was removed; nothing in the
simulator reads it.  :func:`default_shards` keeps its parse, so a guard
that refuses every armed ``REPRO_*`` knob still sees a run that sets it.
"""

import os

#: Environment knob: the worker count the removed sharded rig took.
SHARDS_ENV_VAR = "REPRO_SHARDS"


def default_shards():
    """Worker count from ``REPRO_SHARDS`` (unset/empty/0 -> ``None``).

    A negative count raises :class:`ValueError`.
    """
    raw = os.environ.get(SHARDS_ENV_VAR, "")
    if raw in ("", "0"):
        return None
    workers = int(raw)
    if workers < 1:
        raise ValueError("%s=%r must be a positive worker count"
                         % (SHARDS_ENV_VAR, raw))
    return workers


__all__ = ["SHARDS_ENV_VAR", "default_shards"]
