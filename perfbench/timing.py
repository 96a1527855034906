"""Host timing that holds still on a host whose speed does not.

On a shared host the interpreter's speed swings by up to 2x, for
seconds to many minutes at a time (neighbours on the same cores), and
the simulator slows down with it.  Raw seconds then spread more between
runs than any regression bound can tolerate.  So every host time the benchmark
reports is taken next to a fixed reference computation that is not part
of the program, and scaled to the speed at which that reference takes
:data:`REFERENCE_NOMINAL_S`:

    nominal seconds = measured seconds * REFERENCE_NOMINAL_S / reference time

A change to the program moves the measured seconds but not the
reference, so nominal seconds still track the program's cost; a host
that runs everything 1.7x slower moves both and cancels out.  The
reference runs between slices of the measured phase (see
:func:`run_sliced`), so it samples the host's speed throughout, and is
never counted in the measured time.
"""

import heapq
import time

#: Wall time of one :func:`reference_chunk` at the nominal host speed
#: (about its fast mode on a 2-vCPU VM with CPython 3.11).
REFERENCE_NOMINAL_S = 70e-6

#: Chunks run around each set-up sample.
SETUP_REFERENCE_CHUNKS = 100


class _Event:
    __slots__ = ("when", "owner", "value")


def _process(k):
    total = 0
    while True:
        total = yield total + k


def reference_chunk(n=150):
    """Fixed interpreter-bound work shaped like an event loop: a heap of
    slotted events, each delivered into a generator with ``send``."""
    processes = {}
    for k in range(8):
        processes[k] = _process(k)
        next(processes[k])
    heap = []
    for i in range(n):
        event = _Event()
        event.when = (i * 37) % 101
        event.owner = i & 7
        event.value = i
        heapq.heappush(heap, (event.when, i, event))
        if len(heap) > 16:
            _, _, event = heapq.heappop(heap)
            processes[event.owner].send(event.value)


def timed_reference():
    """One reference chunk -> its (wall, cpu) seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    reference_chunk()
    return time.perf_counter() - wall, time.process_time() - cpu


class Slice:
    """Host seconds of one slice and of the reference run after it."""

    __slots__ = ("wall", "cpu", "ref_wall", "ref_cpu")

    def __init__(self, wall, cpu, ref_wall, ref_cpu):
        self.wall = wall
        self.cpu = cpu
        self.ref_wall = ref_wall
        self.ref_cpu = ref_cpu


def run_sliced(env, span):
    """Run ``env`` dry in slices; returns one :class:`Slice` per slice.

    A slice starts at the next pending event and covers ``span`` of
    simulated time, so its boundaries depend only on the event sequence
    and every repetition at one seed runs the same slices.
    """
    slices = []
    while env.peek() != float("inf"):
        wall, cpu = time.perf_counter(), time.process_time()
        env.run(until=env.peek() + span)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        slices.append(Slice(wall, cpu, *timed_reference()))
    return slices


def nominal(slices):
    """``(wall, cpu)`` nominal seconds of a sliced phase."""
    ref_wall = sum(s.ref_wall for s in slices) / len(slices)
    ref_cpu = sum(s.ref_cpu for s in slices) / len(slices)
    return (sum(s.wall for s in slices) * REFERENCE_NOMINAL_S / ref_wall,
            sum(s.cpu for s in slices) * REFERENCE_NOMINAL_S / ref_cpu)


def reference_speed():
    """Mean wall seconds of :data:`SETUP_REFERENCE_CHUNKS` chunks."""
    return sum(timed_reference()[0]
               for _ in range(SETUP_REFERENCE_CHUNKS)) / SETUP_REFERENCE_CHUNKS
