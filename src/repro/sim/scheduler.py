"""The ``REPRO_SCHED`` knob, kept so callers that guard it get a clear error.

The event loop has one scheduler, the :mod:`heapq` binary heap in
:class:`~repro.sim.loop.Environment`, and does not read this knob.
"""

import os


def default_scheduler_name():
    """``"heap"`` when ``REPRO_SCHED`` is unset, empty or ``heap``.

    Any other value raises :class:`ValueError`: the calendar scheduler
    was removed, and a run asking for it must not silently get the heap.
    """
    name = os.environ.get("REPRO_SCHED", "") or "heap"
    if name != "heap":
        raise ValueError("REPRO_SCHED=%r: the calendar scheduler was "
                         "removed; unset REPRO_SCHED" % (name,))
    return name
