"""Kernel-level error types."""


class KernelError(Exception):
    """Base class for simulated-kernel failures."""


class SegmentationFault(KernelError):
    """Access outside any VMA, or write to a read-only mapping."""

    def __init__(self, task, addr, message=""):
        super().__init__("segfault pid=%s addr=%#x %s" % (
            getattr(task, "pid", "?"), addr, message))
        self.task = task
        self.addr = addr


class BadDescriptorError(KernelError):
    """A container descriptor failed validation (bad id or key)."""


class TaskExited(KernelError):
    """A fault would map a frame into a task that exited while the fault
    slept: the exit already swept the task's table, so the frame would
    leak."""

    def __init__(self, task):
        super().__init__("pid=%s exited before its fault mapped a frame"
                         % (getattr(task, "pid", "?"),))
        self.task = task


class OomKilled(KernelError):
    """A task exceeded its cgroup memory limit and was killed."""

    def __init__(self, task, limit):
        super().__init__("pid=%s exceeded cgroup memory limit %d bytes"
                         % (getattr(task, "pid", "?"), limit))
        self.task = task
        self.limit = limit
