"""Tasks: registers, address space, file descriptors, isolation."""

from itertools import count

from .cgroups import Cgroup, NamespaceSet
from .vma import AddressSpace


class Registers:
    """CPU register file — tiny, copied wholesale on fork/descriptor."""

    __slots__ = ("pc", "sp", "gprs")

    def __init__(self, pc=0x400000, sp=0x7FFF0000, gprs=None):
        self.pc = pc
        self.sp = sp
        self.gprs = dict(gprs or {})

    def clone(self):
        """An independent copy of the register file."""
        return Registers(self.pc, self.sp, dict(self.gprs))

    def __eq__(self, other):
        return (isinstance(other, Registers) and other.pc == self.pc
                and other.sp == self.sp and other.gprs == self.gprs)


class FileDescriptor:
    """One open descriptor: regular file or network socket.

    Serverless functions are mostly stateless; sockets to external storage
    are the common case and are restored via TCP-repair-style logic (§4.1).
    """

    def __init__(self, fd, kind, path=None, offset=0):
        if kind not in ("file", "socket"):
            raise ValueError("unknown fd kind %r" % (kind,))
        self.fd = fd
        self.kind = kind
        self.path = path
        self.offset = offset

    def clone(self):
        """An independent copy of the descriptor."""
        return FileDescriptor(self.fd, self.kind, self.path, self.offset)

    def __repr__(self):
        return "<fd %d %s %s>" % (self.fd, self.kind, self.path)


class Task:
    """A process (the unit a container wraps)."""

    _pids = count(100)

    def __init__(self, kernel, name="task", registers=None, namespaces=None):
        self.kernel = kernel
        self.machine = kernel.machine
        self.pid = next(Task._pids)
        self.name = name
        self.address_space = AddressSpace()
        self.registers = registers or Registers()
        self.fd_table = {}
        self.cgroup = Cgroup()
        self.namespaces = namespaces or NamespaceSet()
        self.state = "runnable"
        #: Multi-hop fork lineage: [(machine, descriptor)] of elder
        #: containers this task may still pull pages from (§4.4).  Index 0
        #: is "self/local"; PTE owner bits index this list.
        self.predecessors = []
        #: A resume over RC transport (Fig. 15 b's "base" design) sets
        #: this to ``{elder machine_id: RcQp}``; None reads over DC.
        self._mitosis_rcqps = None
        #: Pooled-QP leases the connection plane attached at fork time
        #: (None without REPRO_CONNPLANE); released by
        #: ``Invoker.release_leases`` on untrack, or once a lineage
        #: replica holds every page.
        self._connplane_leases = None

    def open_fd(self, kind, path=None):
        """Open a new file/socket descriptor; returns it."""
        fd = max(self.fd_table, default=2) + 1
        self.fd_table[fd] = FileDescriptor(fd, kind, path)
        return self.fd_table[fd]

    def exit(self):
        """Terminate the task and free its resident memory."""
        self.state = "dead"
        self.kernel.release_task(self)

    def __repr__(self):
        return "<Task pid=%d %s on m%d>" % (
            self.pid, self.name, self.machine.machine_id)
