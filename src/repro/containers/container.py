"""A container: one task plus its isolation boundary and lifecycle state."""

from itertools import count



class ContainerState:
    """Lifecycle states a container moves through."""

    CREATED = "created"
    RUNNING = "running"
    PAUSED = "paused"
    DEAD = "dead"


class Container:
    """A running (or paused) instance of a container image."""

    _ids = count(1)

    def __init__(self, image, task, cgroup):
        self.container_id = next(Container._ids)
        self.image = image
        self.task = task
        self.cgroup = cgroup
        self.state = ContainerState.CREATED
        #: Extra accounting the startup path added (e.g. CRIU binary).
        self.extra_overhead_bytes = 0

    @property
    def machine(self):
        """The machine this container runs on."""
        return self.task.machine

    @property
    def kernel(self):
        """The kernel of the container's machine."""
        return self.task.kernel

    def memory_bytes(self):
        """Resident set + fixed runtime overhead (what Figs. 11b/12b plot)."""
        return (self.task.address_space.resident_bytes
                + self.image.runtime_overhead_bytes
                + self.extra_overhead_bytes)

    def mark_running(self):
        """Transition the container to RUNNING."""
        self.state = ContainerState.RUNNING

    def __repr__(self):
        return "<Container %d %s %s on m%d>" % (
            self.container_id, self.image.name, self.state,
            self.machine.machine_id)


class ContainerAccountant:
    """Tracks live containers per machine for the memory figures."""

    def __init__(self):
        self._by_machine = {}

    def register(self, container):
        """Start tracking a container."""
        self._by_machine.setdefault(
            container.machine.machine_id, []).append(container)

    def forget(self, container):
        """Stop tracking a container."""
        bucket = self._by_machine.get(container.machine.machine_id, [])
        if container in bucket:
            bucket.remove(container)

    def live_on(self, machine):
        """Non-dead tracked containers on ``machine``."""
        return [c for c in self._by_machine.get(machine.machine_id, [])
                if c.state != ContainerState.DEAD]

    def memory_on(self, machine):
        """Total tracked container memory on ``machine``."""
        return sum(c.memory_bytes() for c in self.live_on(machine))
