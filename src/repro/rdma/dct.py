"""Dynamic connected transport (DCT) targets and the target pool.

DCT is the advanced RDMA transport MITOSIS builds on (§4.2): one DC queue
pair can talk to any DC *target* on any machine, re-connecting in under a
microsecond.  MITOSIS assigns one DC target per parent VMA and revokes
access to a VMA's physical pages by destroying its target (§4.3) — the
"connection-based passive memory access control" that replaces MRs.
"""

from itertools import count

from .. import params


class DctKey:
    """The 12-byte key a child must present to use a DC target.

    The paper treats the NIC-generated 4B number and the user-passed 8B key
    as one unit; so do we.
    """

    _nic_parts = count(0x1000)

    def __init__(self, user_part):
        self.nic_part = next(DctKey._nic_parts)
        self.user_part = user_part

    def __eq__(self, other):
        return (isinstance(other, DctKey)
                and other.nic_part == self.nic_part
                and other.user_part == self.user_part)

    def __hash__(self):
        return hash((self.nic_part, self.user_part))

    def __repr__(self):
        return "<DctKey %x/%x>" % (self.nic_part, self.user_part)

    @property
    def nbytes(self):
        """Wire size of the key (12 B)."""
        return params.DCT_KEY_BYTES


class DcTarget:
    """A DC target living on one machine's RNIC.

    ``active`` drops to False on destroy; the RNIC thereafter NAKs any
    request presenting this target (the passive-revocation signal children
    observe as :class:`~repro.rdma.errors.RemoteAccessError`).
    """

    _ids = count(1)

    def __init__(self, machine, user_key):
        self.machine = machine
        self.target_id = next(DcTarget._ids)
        self.key = DctKey(user_key)
        self.active = True

    def destroy(self):
        """Deactivate the target; the RNIC NAKs future requests."""
        self.active = False

    def credentials(self):
        """``(target_id, key)`` — the handle a remote DC QP presents.

        This pair is exactly what advertisement records distribute ahead
        of demand (``repro.connplane``): holding it lets any invoker read
        through the target without first asking the owner.
        """
        return self.target_id, self.key

    @property
    def nbytes(self):
        """NIC memory footprint of the target (144 B)."""
        return params.DC_TARGET_BYTES

    def __repr__(self):
        return "<DcTarget %d on m%d %s>" % (
            self.target_id, self.machine.machine_id,
            "active" if self.active else "destroyed")


class DcTargetPool:
    """Pre-created DC targets amortizing the 200 us creation cost (§4.3).

    ``take`` returns a pooled target instantly when available and triggers
    an asynchronous refill, so steady-state fork_prepare never pays target
    creation on the critical path.
    """

    def __init__(self, env, nic):
        self.env = env
        self.nic = nic
        self._free = []
        self._created = 0

    def prefill_at_boot(self):
        """Fill the pool before the experiment clock starts (no sim time)."""
        while len(self._free) < params.DC_TARGET_POOL_SIZE:
            self._free.append(self.nic._new_target(user_key=self._created))
            self._created += 1

    def take(self):
        """Get a target: free from the pool, else pay creation cost.

        Generator returning a :class:`DcTarget`.
        """
        if self._free:
            target = self._free.pop()
            self.env.process(self._refill_one())
            return target
        tracer = self.env.tracer
        if tracer is not None and tracer.enabled:
            # Pool empty: the 200 us creation lands on the critical path —
            # exactly the event worth seeing on a fork timeline.
            with tracer.start_span("dct.create_target",
                                   machine=self.nic.machine.machine_id):
                yield self.env.timeout(params.DC_TARGET_CREATE_LATENCY)
        else:
            yield self.env.timeout(params.DC_TARGET_CREATE_LATENCY)
        self._created += 1
        return self.nic._new_target(user_key=self._created)

    def _refill_one(self):
        yield self.env.timeout(params.DC_TARGET_CREATE_LATENCY)
        if len(self._free) < params.DC_TARGET_POOL_SIZE:
            self._free.append(self.nic._new_target(user_key=self._created))
            self._created += 1

    @property
    def available(self):
        """Free targets currently pooled."""
        return len(self._free)
