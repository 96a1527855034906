"""The authoritative seed-lineage registry (LB-side, crash-recoverable).

Tracks, per function lineage (one warm seed family):

* the **generation** — a monotonic fencing token bumped on every
  placement or re-election; stale holders are rejected by comparing
  ``held < current`` (never equality);
* the **primary placement** (invoker + descriptor handler);
* the **replica set** with per-replica **copy epochs** (how many VMAs
  the background copier has fully streamed — a replica may only serve
  VMAs below its epoch);
* active **leases**: which invokers hold the descriptor at which
  generation.  The invariant — at most one *distinct* generation among
  a lineage's active leases — is what makes fencing split-brain-safe;
* the delivered **fence** floor per lineage.

Every mutation is journaled to the :class:`~repro.lineage.wal.WriteAheadLog`
*first* and then applied through the single :meth:`_apply` path, so
:meth:`from_wal` (controller restart) rebuilds the exact same state —
``audit_lineage`` asserts this equivalence.  Mutators validate; the
apply path trusts the journal.  The registry is pure state: no events,
no randomness, no wall clock (timestamps come in as arguments).
"""

from .wal import WriteAheadLog


class LineageRegistry:
    """Journaled authority over one cluster's seed lineages.

    Pure state machine: every mutator journals first, then applies via
    :meth:`_apply`; :meth:`from_wal` replays the journal into an
    identical registry (asserted by ``audit_lineage``).
    """

    def __init__(self):
        self.wal = WriteAheadLog()
        #: name -> current generation (monotonic fencing token).
        self._generations = {}
        #: name -> {"invoker": index, "handler_id": int} for the primary.
        self._placements = {}
        #: name -> {invoker_index: {"handler_id": int|None, "copy_epoch": n}}.
        self._replicas = {}
        #: name -> number of VMAs in the primary descriptor (the epoch a
        #: replica must reach before it can serve every VMA).
        self._primary_epochs = {}
        #: name -> {invoker_index: (handler_id, generation)} active leases.
        self._leases = {}
        #: name -> highest fence generation broadcast for the lineage.
        self._fences = {}
        #: name -> machine ids that ever hosted the lineage (fence targets).
        self._hosts = {}

    @classmethod
    def from_wal(cls, wal):
        """Rebuild a registry from a journal (controller restart path).

        Records are applied through the same :meth:`_apply` used live and
        are *not* re-journaled; the returned registry adopts ``wal`` so
        subsequent mutations continue the same history.
        """
        registry = cls()
        for record in wal:
            registry._apply(record)
        registry.wal = wal
        return registry

    # ------------------------------------------------------------- mutators

    def _journal(self, at, op, **payload):
        record = self.wal.append(at, op, **payload)
        self._apply(record)
        return record

    def place_primary(self, at, name, invoker, handler_id, machine_id,
                      vma_count):
        """Install (or re-install) the primary seed; bumps the generation
        and atomically replaces all leases with the primary's."""
        generation = self._generations.get(name, 0) + 1
        self._journal(at, "place_primary", name=name, invoker=invoker,
                      handler_id=handler_id, machine_id=machine_id,
                      vma_count=vma_count, generation=generation)
        return generation

    def grant_lease(self, at, name, invoker, handler_id, generation):
        """Record that ``invoker`` holds the lineage descriptor.  Stale
        grants (below the current generation) are rejected up front so a
        slow re-preparation can never resurrect an old generation."""
        if generation < self._generations.get(name, 0):
            raise ValueError(
                "stale lease grant for %r: generation %d < current %d"
                % (name, generation, self._generations.get(name, 0)))
        self._journal(at, "grant_lease", name=name, invoker=invoker,
                      handler_id=handler_id, generation=generation)

    def revoke_lease(self, at, name, invoker):
        """Drop ``invoker``'s lease (idempotent)."""
        if invoker in self._leases.get(name, {}):
            self._journal(at, "revoke_lease", name=name, invoker=invoker)

    def add_replica(self, at, name, invoker, machine_id):
        """Start tracking a replica-in-copy on ``invoker`` (epoch 0)."""
        self._journal(at, "add_replica", name=name, invoker=invoker,
                      machine_id=machine_id)

    def bump_copy_epoch(self, at, name, invoker):
        """One more VMA fully streamed to ``invoker``'s replica."""
        entry = self._replicas.get(name, {}).get(invoker)
        if entry is None:
            raise KeyError("no replica of %r on invoker %r" % (name, invoker))
        if entry["copy_epoch"] + 1 > self._primary_epochs.get(name, 0):
            raise ValueError(
                "replica copy epoch for %r on invoker %r would exceed the "
                "primary epoch %d" % (name, invoker,
                                      self._primary_epochs.get(name, 0)))
        self._journal(at, "bump_copy_epoch", name=name, invoker=invoker)

    def replica_ready(self, at, name, invoker, handler_id):
        """The replica published its own descriptor; it now holds a lease
        at the current generation."""
        generation = self._generations.get(name, 0)
        self._journal(at, "replica_ready", name=name, invoker=invoker,
                      handler_id=handler_id, generation=generation)
        return generation

    def elect(self, at, name, invoker, handler_id, vma_count):
        """Promote a replica to primary: bump the generation, adopt the
        new primary's VMA count as the full copy epoch, and atomically
        replace all leases with the new primary's (survivors re-acquire
        via :meth:`grant_lease` once they confirm adoption)."""
        generation = self._generations.get(name, 0) + 1
        self._journal(at, "elect", name=name, invoker=invoker,
                      handler_id=handler_id, generation=generation,
                      vma_count=vma_count)
        return generation

    def drop_replica(self, at, name, invoker):
        """Forget a replica (and its lease, if any).  Idempotent."""
        if invoker in self._replicas.get(name, {}):
            self._journal(at, "drop_replica", name=name, invoker=invoker)

    def fence(self, at, name, generation):
        """Raise the lineage's fence floor (max-merge; never lowers)."""
        if generation <= self._fences.get(name, -1):
            return
        self._journal(at, "fence", name=name, generation=generation)

    def retire(self, at, name):
        """Drop the whole lineage from the registry (idempotent)."""
        if name in self._generations:
            self._journal(at, "retire", name=name)

    # ----------------------------------------------------------- apply path

    def _apply(self, record):
        """Apply one journaled record.  Trusting by design: validation
        happened in the mutator before journaling, and replay must accept
        exactly what the journal says."""
        op, p = record.op, record.payload
        name = p.get("name")
        if op == "place_primary":
            self._generations[name] = p["generation"]
            self._placements[name] = {"invoker": p["invoker"],
                                      "handler_id": p["handler_id"]}
            self._primary_epochs[name] = p["vma_count"]
            self._replicas.setdefault(name, {})
            self._hosts.setdefault(name, set()).add(p["machine_id"])
            self._leases[name] = {
                p["invoker"]: (p["handler_id"], p["generation"])}
        elif op == "grant_lease":
            self._leases.setdefault(name, {})[p["invoker"]] = (
                p["handler_id"], p["generation"])
        elif op == "revoke_lease":
            self._leases.get(name, {}).pop(p["invoker"], None)
        elif op == "add_replica":
            self._replicas.setdefault(name, {})[p["invoker"]] = {
                "handler_id": None, "copy_epoch": 0}
            self._hosts.setdefault(name, set()).add(p["machine_id"])
        elif op == "bump_copy_epoch":
            self._replicas[name][p["invoker"]]["copy_epoch"] += 1
        elif op == "replica_ready":
            self._replicas[name][p["invoker"]]["handler_id"] = p["handler_id"]
            self._leases.setdefault(name, {})[p["invoker"]] = (
                p["handler_id"], p["generation"])
        elif op == "elect":
            self._generations[name] = p["generation"]
            self._placements[name] = {"invoker": p["invoker"],
                                      "handler_id": p["handler_id"]}
            self._primary_epochs[name] = p["vma_count"]
            self._replicas.get(name, {}).pop(p["invoker"], None)
            self._leases[name] = {
                p["invoker"]: (p["handler_id"], p["generation"])}
        elif op == "drop_replica":
            self._replicas.get(name, {}).pop(p["invoker"], None)
            self._leases.get(name, {}).pop(p["invoker"], None)
        elif op == "fence":
            self._fences[name] = p["generation"]
        elif op == "retire":
            for table in (self._generations, self._placements,
                          self._replicas, self._primary_epochs,
                          self._leases, self._fences, self._hosts):
                table.pop(name, None)
        else:
            raise ValueError("unknown WAL op %r" % (op,))

    # ------------------------------------------------------------ accessors

    def names(self):
        """Every lineage name, sorted."""
        return sorted(self._generations)

    def generation(self, name):
        """The lineage's current generation (0 if unknown)."""
        return self._generations.get(name, 0)

    def placement(self, name):
        """The primary placement dict, or None."""
        return self._placements.get(name)

    def replicas(self, name):
        """Replica map copy: invoker index -> {handler_id, copy_epoch}."""
        return dict(self._replicas.get(name, {}))

    def primary_epoch(self, name):
        """VMA count of the primary descriptor (the full copy epoch)."""
        return self._primary_epochs.get(name, 0)

    def leases(self, name):
        """Active leases copy: invoker index -> (handler_id, generation)."""
        return dict(self._leases.get(name, {}))

    def holder_generations(self, name):
        """The set of distinct generations among active leases — the
        split-brain invariant says this never has more than one member."""
        return {generation
                for _handler, generation in self._leases.get(name,
                                                             {}).values()}

    def fence_of(self, name):
        """The highest fence generation broadcast (0 if none)."""
        return self._fences.get(name, 0)

    def hosts(self, name):
        """Every machine id that ever hosted the lineage."""
        return set(self._hosts.get(name, ()))

    def snapshot(self):
        """A canonical, order-independent dict of the full registry state
        (what ``audit_lineage`` compares against a WAL replay)."""
        return {
            "generations": dict(self._generations),
            "placements": {n: dict(p) for n, p in self._placements.items()},
            "replicas": {n: {i: dict(r) for i, r in reps.items()}
                         for n, reps in self._replicas.items()},
            "primary_epochs": dict(self._primary_epochs),
            "leases": {n: {i: tuple(l) for i, l in leases.items()}
                       for n, leases in self._leases.items()},
            "fences": dict(self._fences),
            "hosts": {n: sorted(h) for n, h in self._hosts.items()},
        }
