"""Shared-resource primitives built on the event kernel.

These model contention points in the simulated cluster: CPU cores on an
invoker, NIC doorbells, the per-machine kernel threads that serve descriptor
fetches, etc.
"""

from collections import deque

from .errors import SimulationError
from .events import Event


class Resource:
    """A counted resource with FIFO admission (a semaphore).

    Processes ``yield resource.acquire()`` and must call :meth:`release`
    exactly once per grant.
    """

    def __init__(self, env, capacity=1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got %r" % (capacity,))
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters = deque()

    @property
    def in_use(self):
        """Number of currently held slots."""
        return self._in_use

    @property
    def queued(self):
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    def acquire(self):
        """Return an event that fires once a slot is granted."""
        grant = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.succeed(self)
        else:
            self._waiters.append(grant)
        grant._abandon = self._abandon_grant
        return grant

    def _abandon_grant(self, grant):
        """A waiter was interrupted: give its slot (or queue spot) back."""
        if grant.triggered:
            # The slot was already granted but will never be used/released
            # by the dead waiter; hand it to the next in line.
            self.release()
        else:
            try:
                self._waiters.remove(grant)
            except ValueError:
                pass

    def release(self):
        """Return a slot; wakes the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without matching acquire()")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO hand-off queue between processes.

    ``put`` never blocks; ``get`` returns an event that fires with the oldest
    item once one is available.
    """

    def __init__(self, env):
        self.env = env
        self._items = deque()
        self._getters = deque()

    def __len__(self):
        return len(self._items)

    def put(self, item):
        """Deposit ``item``; wakes the oldest blocked getter if any."""
        if not self._hand_off(item):
            self._items.append(item)

    def _hand_off(self, item):
        """Grant ``item`` to the oldest waiting getter; False if none."""
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:  # skip cancelled getters
                getter.succeed(item)
                return True
        return False

    def get(self):
        """Return an event that fires with the next item."""
        getter = Event(self.env)
        if self._items:
            getter.succeed(self._items.popleft())
        else:
            self._getters.append(getter)
        getter._abandon = self._abandon_get
        return getter

    def _abandon_get(self, getter):
        """An interrupted getter passes on the item it was granted but
        never received: to the oldest waiting getter, else back to the
        front of the queue."""
        if not getter.triggered:
            self.cancel(getter)
        elif not self._hand_off(getter._value):
            self._items.appendleft(getter._value)

    def cancel(self, getter):
        """Withdraw a pending getter (it will never fire)."""
        try:
            self._getters.remove(getter)
        except ValueError:
            pass


class Gate:
    """A broadcast condition: many waiters, released all at once.

    Unlike :class:`Event`, a gate can be re-armed after each :meth:`open`,
    which suits recurring signals (e.g. "a page arrived, recheck").
    """

    def __init__(self, env):
        self.env = env
        self._waiters = []

    def wait(self):
        """Return an event that fires at the next :meth:`open`."""
        waiter = Event(self.env)
        self._waiters.append(waiter)
        return waiter

    def open(self, value=None):
        """Fire all current waiters with ``value`` and re-arm."""
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed(value)
        return len(waiters)

    def cancel(self, waiter):
        """Withdraw a pending waiter (it will never fire)."""
        try:
            self._waiters.remove(waiter)
        except ValueError:
            pass
