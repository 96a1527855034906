"""Per-invoker advertisement caches: ahead-of-demand handle distribution.

An *advertisement* is the record the plane pushes to likely invokers
when a seed is registered, re-elected, or renewed: the seed's fork
meta, its control DC-target handle, the per-VMA DCT keys (rkeys), the
fencing generation, and the descriptor body itself.  An invoker holding
a fresh advert forks without the per-fork descriptor-query RPC *and*
without the descriptor-body RDMA read — the two control-plane round
trips the seed pays on every miss.

Staleness is handled by construction, not by validation RPCs:

* installs are keyed by function name, so a re-advertisement atomically
  replaces the previous entry (and its by-meta index);
* lookups are keyed by :class:`~repro.core.descriptor.ForkMeta`
  identity, so a holder of a superseded handle simply *misses* and
  falls through to the authoritative RPC path, where the usual
  lease/fence machinery rejects it;
* crash and fence events drop entries eagerly (:meth:`drop_machine`,
  :meth:`drop_below_generation`).

Every cached entry charges its machine's memory account with the
advert's wire size (:attr:`ContainerDescriptor.advert_bytes`), so the
memory-conservation sanitizer catches advert leaks like any other
charge imbalance.
"""


class AdvertEntry:
    """One cached advertisement."""

    __slots__ = ("name", "meta", "descriptor", "parent_machine", "nbytes")

    def __init__(self, name, meta, descriptor, parent_machine):
        self.name = name
        self.meta = meta
        self.descriptor = descriptor
        self.parent_machine = parent_machine
        self.nbytes = descriptor.advert_bytes

    @property
    def generation(self):
        """The advertised fencing generation (None when unstamped)."""
        return self.meta.generation


class AdvertCache:
    """The advert table on one invoker machine."""

    def __init__(self, machine, counters):
        self.machine = machine
        self.counters = counters
        #: function name -> AdvertEntry (one live advert per function).
        self._by_name = {}
        #: ForkMeta -> AdvertEntry (the fork-path lookup index).
        self._by_meta = {}

    def __len__(self):
        return len(self._by_name)

    def entries(self):
        """Every live entry (the sanitizer's iteration surface)."""
        return list(self._by_name.values())

    @property
    def cached_bytes(self):
        """Memory charged by this cache against its machine's account."""
        return sum(entry.nbytes for entry in self._by_name.values())

    def install(self, entry):
        """Install (or atomically replace) the advert for ``entry.name``."""
        self._evict(self._by_name.get(entry.name))
        self.machine.memory.alloc(entry.nbytes)
        self._by_name[entry.name] = entry
        self._by_meta[entry.meta] = entry
        self.counters.incr("adverts_installed")

    def lookup(self, fork_meta):
        """The cached advert for exactly this handle, or None."""
        entry = self._by_meta.get(fork_meta)
        self.counters.incr("advert_hits" if entry is not None
                           else "advert_misses")
        return entry

    def has(self, name, meta):
        """True when the cache already holds this exact advertisement."""
        entry = self._by_name.get(name)
        return entry is not None and entry.meta == meta

    def _evict(self, entry):
        if entry is None:
            return
        self._by_name.pop(entry.name, None)
        self._by_meta.pop(entry.meta, None)
        self.machine.memory.free(entry.nbytes)

    def drop(self, name):
        """Drop one function's advert (if present)."""
        self._evict(self._by_name.get(name))

    def drop_machine(self, machine_id):
        """Drop every advert pointing at a crashed parent machine."""
        for entry in list(self._by_name.values()):
            if entry.meta.machine_id == machine_id:
                self._evict(entry)
                self.counters.incr("adverts_invalidated")

    def drop_below_generation(self, name, floor):
        """Fence composition: a superseded generation must not serve."""
        entry = self._by_name.get(name)
        if (entry is not None and entry.generation is not None
                and entry.generation < floor):
            self._evict(entry)
            self.counters.incr("adverts_fenced")

    def clear(self):
        """Fail-stop wipe (this machine crashed)."""
        for entry in list(self._by_name.values()):
            self._evict(entry)
