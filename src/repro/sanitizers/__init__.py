"""Runtime sanitizers: dynamic cross-checks of reprolint's static invariants.

Each static rule in ``tools/reprolint`` has a runtime counterpart here, so
a bug that slips past the AST (e.g. a refcount corrupted through an alias
the lint heuristic cannot see) is still caught when a test or experiment
runs with sanitizers on:

=============================  ==========================================
static rule                    runtime sanitizer
=============================  ==========================================
no-raw-pte-mutation            :func:`audit_frame_refcounts`
acquire-release-balance        :func:`audit_memory_conservation`
event-handler-hygiene          :func:`audit_loop_drained`
rpc-deadline                   :func:`audit_resilience`
unclosed-span                  :func:`audit_traces`
stale-generation-compare       :func:`audit_lineage`
raw-link-capacity              :func:`audit_fabric`
qp-create-outside-connplane    :func:`audit_connplane`
=============================  ==========================================

All auditors return a list of human-readable violation strings (empty when
clean); the ``check_*`` wrappers raise :class:`SanitizerViolation` instead.
Tests opt in per-run; setting ``REPRO_SANITIZERS=1`` (see :func:`enabled`)
makes the sanitizer-aware tests audit every seeded experiment they run
instead of just the cheap default subset.
"""

from .. import params

__all__ = [
    "SanitizerViolation", "enabled",
    "audit_frame_refcounts", "audit_memory_conservation",
    "audit_loop_drained", "audit_resilience", "audit_traces",
    "audit_lineage", "audit_rig", "audit_fabric",
    "audit_connplane",
    "check_frame_refcounts", "check_memory_conservation",
    "check_loop_drained", "check_resilience", "check_traces",
    "check_lineage", "check_rig", "check_fabric",
    "check_connplane",
]


class SanitizerViolation(AssertionError):
    """A simulation invariant was observed broken at runtime."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "%d invariant violation(s):\n%s"
            % (len(self.violations), "\n".join("  - %s" % v
                                               for v in self.violations)))


def enabled():
    """True when the ``REPRO_SANITIZERS`` flag asks for the strict sweep
    (any value but an off spelling, :func:`repro.params.env_flag`)."""
    return params.env_flag("REPRO_SANITIZERS")


# --- Frame refcount audit (cross-validates no-raw-pte-mutation) ----------------

def audit_frame_refcounts(kernels):
    """Verify frame bookkeeping against the page tables on each machine.

    At a quiescent point (no process mid-fault), for every machine:

    * no present PTE maps a freed frame,
    * no non-present PTE still holds a frame reference,
    * each live frame's refcount equals its number of PTE mappings, and
    * the allocator's live-frame count equals the mapped-frame count
      (anything else is a leaked — alloc'd but unmapped — frame).
    """
    violations = []
    for kernel in kernels:
        machine_id = kernel.machine.machine_id
        mapped = {}
        frames = {}
        for task in kernel.tasks.values():
            # Untouched snapshot entries hold no frame; walking only the
            # real PTEs keeps the audit from flattening an overlay.
            for vpn, pte in task.address_space.page_table.materialized():
                if pte.present and pte.frame is not None:
                    frames[id(pte.frame)] = pte.frame
                    mapped[id(pte.frame)] = mapped.get(id(pte.frame), 0) + 1
                    if not pte.frame.live:
                        violations.append(
                            "m%d: task %d (%s) vpn %d maps freed frame %r"
                            % (machine_id, task.pid, task.name, vpn,
                               pte.frame))
                elif pte.frame is not None:
                    violations.append(
                        "m%d: task %d (%s) vpn %d holds frame %r on a "
                        "non-present PTE" % (machine_id, task.pid,
                                             task.name, vpn, pte.frame))
        for fid, frame in frames.items():
            if frame.live and frame.refcount != mapped[fid]:
                violations.append(
                    "m%d: frame pfn=%d refcount=%d but %d PTE mapping(s)"
                    % (machine_id, frame.pfn, frame.refcount, mapped[fid]))
        live_mapped = sum(1 for f in frames.values() if f.live)
        if kernel.frames.allocated != live_mapped:
            violations.append(
                "m%d: allocator reports %d live frame(s) but %d are mapped "
                "— %s" % (machine_id, kernel.frames.allocated, live_mapped,
                          "frame leak" if kernel.frames.allocated > live_mapped
                          else "double free"))
    return violations


# --- Memory-charge conservation (cross-validates acquire-release-balance) ------

def audit_memory_conservation(machines, kernels=(), descriptor_services=(),
                              tmpfs_stores=(), dfs=None, connplane=None):
    """Verify every machine's DRAM account against its known charge holders.

    The holders are the only subsystems that charge ``machine.memory``:
    page frames, published descriptors, tmpfs checkpoint images, DFS
    objects, and (with the connection plane armed) pooled warm QPs and
    cached advertisements.  Any difference means a charge was taken
    without a balancing release on some exit path (the dynamic face of
    acquire-release imbalance).
    """
    expected = {}

    def add(machine, nbytes, label):
        expected.setdefault(machine.machine_id, []).append((nbytes, label))

    for kernel in kernels:
        add(kernel.machine, kernel.frames.bytes_allocated, "frames")
    for service in descriptor_services:
        nbytes = sum(descriptor.nbytes
                     for descriptor, _shadow in service._table.values())
        add(service.machine, nbytes, "descriptors")
    for store in tmpfs_stores:
        add(store.machine, store.stored_bytes, "tmpfs images")
    if dfs is not None:
        for osd in dfs.osds:
            add(osd.machine, osd.stored_bytes, "dfs objects")
    if connplane is not None:
        for pool in connplane.pools.values():
            add(pool.machine, pool.pooled_bytes, "pooled qps")
        for cache in connplane.caches.values():
            add(cache.machine, cache.cached_bytes, "adverts")

    violations = []
    for machine in machines:
        account = machine.memory
        if not 0 <= account.used <= account.capacity:
            violations.append(
                "m%d: memory account out of range (used=%d capacity=%d)"
                % (machine.machine_id, account.used, account.capacity))
        if account.peak < account.used:
            violations.append(
                "m%d: high-water mark %d below current usage %d"
                % (machine.machine_id, account.peak, account.used))
        holders = expected.get(machine.machine_id)
        if holders is None:
            continue
        total = sum(nbytes for nbytes, _ in holders)
        if total != account.used:
            detail = ", ".join("%s=%d" % (label, nbytes)
                               for nbytes, label in holders)
            violations.append(
                "m%d: %d byte(s) charged but holders account for %d (%s) — "
                "an exit path %s its charge"
                % (machine.machine_id, account.used, total, detail,
                   "leaked" if account.used > total else "double-freed"))
    return violations


# --- Event-loop drain (cross-validates event-handler-hygiene) ------------------

def audit_loop_drained(env):
    """Drain the event loop and verify it empties without surfacing errors.

    Call after an experiment's arrivals are done and its daemons are
    stopped: a queue that never dries (a runaway self-rescheduling
    callback) or an unhandled failure nobody waited on shows up here.
    """
    violations = []
    try:
        # The auditor *is* a loop driver, like an experiment harness: it is
        # only ever called from test/experiment code at a quiescent point.
        env.run()  # reprolint: disable=event-handler-hygiene
    except BaseException as exc:  # surface, don't mask, the drain failure
        violations.append("loop drain raised %s: %s"
                          % (type(exc).__name__, exc))
    if env.peek() != float("inf"):
        violations.append(
            "event queue not drained: next event still scheduled at %r"
            % (env.peek(),))
    return violations


# --- Resilience accounting (cross-validates rpc-deadline) ----------------------

def audit_resilience(breakers=(), contexts=(), now=None):
    """Verify the gray-failure layer's accounting at quiescence.

    * Every circuit breaker that ever opened must be observable as closed
      or half-open at ``now`` — a breaker stuck open past its cooldown
      means its clock math (or a missed probe outcome) wedged the path
      shut forever.
    * Every transition log must alternate legally (closed->open,
      open->half-open, half-open->open/closed).
    * Every retry budget must conserve: ``spent`` equals the sum of its
      append-only ledger and never exceeds ``granted`` — anything else is
      a retry that was taken without being paid for.
    """
    violations = []
    for breaker in breakers:
        if now is not None and breaker.state_at(now) == "open":
            violations.append(
                "breaker %s still open at quiescence (t=%g) — cooldown "
                "never elapsed or a probe outcome was dropped"
                % (breaker.name, now))
        legal = {"closed": ("open",),
                 "open": ("half-open",),
                 "half-open": ("open", "closed")}
        for _at, from_state, to_state in breaker.transitions:
            if to_state not in legal.get(from_state, ()):
                violations.append(
                    "breaker %s made an illegal transition %s -> %s"
                    % (breaker.name, from_state, to_state))
    for ctx in contexts:
        budget = getattr(ctx, "retry_budget", None)
        if budget is None:
            continue
        ledger_total = sum(amount for _label, amount in budget.ledger)
        if budget.spent != ledger_total:
            violations.append(
                "retry budget %r: spent=%d but ledger sums to %d — a "
                "retry was taken off the books"
                % (budget, budget.spent, ledger_total))
        if budget.spent > budget.granted:
            violations.append(
                "retry budget %r: spent %d of %d granted — overdraft"
                % (budget, budget.spent, budget.granted))
    return violations


# --- Trace well-formedness (cross-validates unclosed-span) ---------------------

def audit_traces(tracer):
    """Verify a :class:`~repro.trace.Tracer`'s spans at quiescence.

    * every span started was ended by simulation end (the dynamic face of
      the ``unclosed-span`` lint: a leak through an alias or a swallowed
      interrupt still shows up here),
    * every span's end is at or after its start,
    * every (closed) child's interval nests within its parent's,
    * every span is reachable from a root (no orphaned subtree), and
    * roots carrying an ``invocation`` attribute are unique per value —
      one invocation must yield exactly one connected tree.

    Known limitation: a defused RPC straggler can outlive its caller's
    span, but only under fault injection — traced rigs here are
    fail-free, so containment is checked unconditionally.
    """
    violations = []
    if tracer is None:
        return violations
    for span in tracer.open_spans():
        violations.append(
            "span %r started at %g was never ended" % (span.name, span.start))
    seen_invocations = {}
    reachable = set()
    stack = list(tracer.roots)
    while stack:
        span = stack.pop()
        reachable.add(id(span))
        stack.extend(span.children)
    for span in tracer.spans:
        if id(span) not in reachable:
            violations.append(
                "span %r at %g is unreachable from any root"
                % (span.name, span.start))
        if span.ended and span.end_time < span.start:
            violations.append(
                "span %r ends at %g before its start %g"
                % (span.name, span.end_time, span.start))
        parent = span.parent
        if parent is not None and span.ended and parent.ended:
            if span.start < parent.start or span.end_time > parent.end_time:
                violations.append(
                    "span %r [%g, %g] escapes its parent %r [%g, %g]"
                    % (span.name, span.start, span.end_time,
                       parent.name, parent.start, parent.end_time))
    for root in tracer.roots:
        invocation = root.attrs.get("invocation")
        if invocation is None:
            continue
        if invocation in seen_invocations:
            violations.append(
                "invocation %r has more than one root span (%r and %r)"
                % (invocation, seen_invocations[invocation].name, root.name))
        else:
            seen_invocations[invocation] = root
    return violations


def audit_lineage(lineage, services=()):
    """Verify a :class:`~repro.lineage.runtime.LineageRuntime` at quiescence.

    Four families of checks:

    * **WAL prefix invariants** — replaying the journal record by record,
      the generation of every lineage is non-decreasing (strictly rising
      on placements and elections), active leases never span more than
      one distinct generation, every replica's copy epoch stays at or
      below the primary epoch, and fence floors never move backwards.
    * **Replay equivalence** — :meth:`LineageRegistry.from_wal` over the
      live journal must reproduce the live registry's snapshot exactly
      (the crash-recovery contract).
    * **Settled replicas** — at quiescence a replica that published its
      descriptor must have fully caught up (copy epoch == primary epoch).
    * **Serve-after-fence** — joining each daemon's ``serve_log`` against
      its ``fence_log`` by timestamp: once a fence at floor G has been
      applied locally, that daemon must never again serve the lineage at
      a generation below G.  (Serves *before* the fence arrives are
      legal — fencing is knowledge-based, not clairvoyant.)
    """
    violations = []
    if lineage is None:
        return violations
    from ..lineage.registry import LineageRegistry

    registry = lineage.registry
    scratch = LineageRegistry()
    generations = {}
    for record in registry.wal:
        scratch._apply(record)
        name = record.payload.get("name")
        op = record.op
        if op in ("place_primary", "elect"):
            new = record.payload["generation"]
            if new <= generations.get(name, 0):
                violations.append(
                    "WAL seq %d: %s of %r does not raise the generation "
                    "(%d after %d)" % (record.seq, op, name, new,
                                       generations.get(name, 0)))
            generations[name] = new
        elif op == "retire":
            generations.pop(name, None)
        current = scratch.generation(name)
        if current < generations.get(name, 0):
            violations.append(
                "WAL seq %d: generation of %r moved backwards to %d"
                % (record.seq, name, current))
        holders = scratch.holder_generations(name)
        if len(holders) > 1:
            violations.append(
                "WAL seq %d: leases of %r span generations %s — "
                "split-brain window" % (record.seq, name, sorted(holders)))
        for invoker, replica in scratch.replicas(name).items():
            if replica["copy_epoch"] > scratch.primary_epoch(name):
                violations.append(
                    "WAL seq %d: replica of %r on invoker %d has copy "
                    "epoch %d above the primary epoch %d"
                    % (record.seq, name, invoker, replica["copy_epoch"],
                       scratch.primary_epoch(name)))
    fences = {}
    for record in registry.wal:
        if record.op != "fence":
            continue
        name = record.payload["name"]
        floor = record.payload["generation"]
        if floor < fences.get(name, 0):
            violations.append(
                "WAL seq %d: fence floor of %r lowered to %d from %d"
                % (record.seq, name, floor, fences[name]))
        fences[name] = floor

    replayed = LineageRegistry.from_wal(registry.wal).snapshot()
    live = registry.snapshot()
    if replayed["generations"] != live["generations"]:  # reprolint: baselined
        violations.append(
            "WAL replay diverges from the live registry on generations: "
            "%r vs %r" % (replayed["generations"], live["generations"]))
    elif replayed != live:
        diverging = sorted(k for k in live if replayed[k] != live[k])
        violations.append(
            "WAL replay diverges from the live registry on %s"
            % ", ".join(diverging))

    for name in registry.names():
        for invoker, replica in registry.replicas(name).items():
            if replica["handler_id"] is None:
                continue
            if replica["copy_epoch"] < registry.primary_epoch(name):
                violations.append(
                    "published replica of %r on invoker %d is short of the "
                    "primary epoch (%d < %d) at quiescence"
                    % (name, invoker, replica["copy_epoch"],
                       registry.primary_epoch(name)))

    for service in services:
        serve_log = getattr(service, "serve_log", None)
        fence_log = getattr(service, "fence_log", None)
        if not serve_log:
            continue
        fence_log = list(fence_log or ())
        floors = {}
        cursor = 0
        for at, name, generation, kind in serve_log:
            while cursor < len(fence_log) and fence_log[cursor][0] <= at:
                _fat, fname, floor = fence_log[cursor]
                if floor > floors.get(fname, 0):
                    floors[fname] = floor
                cursor += 1
            if generation is not None and generation < floors.get(name, 0):
                machine = getattr(getattr(service, "machine", None),
                                  "machine_id", "?")
                violations.append(
                    "daemon on machine %s served a %s of %r at t=%g at "
                    "generation %d below its applied fence floor %d"
                    % (machine, kind, name, at, generation, floors[name]))
    return violations


# --- Whole-rig sweep -----------------------------------------------------------

def audit_rig(rig, drain=True):
    """Run every auditor against an experiment rig.

    Duck-types both :class:`~repro.experiments.rigs.PrimitiveRig` and
    :class:`~repro.fn.framework.FnCluster`: anything with ``env``,
    ``cluster``, ``kernels`` and optionally ``deployment``/``dfs``.
    """
    violations = []
    if drain:
        violations.extend(audit_loop_drained(rig.env))
    machines = list(rig.cluster)
    kernels = list(getattr(rig, "kernels", ()))
    deployment = getattr(rig, "deployment", None)
    services = ([node.service for node in deployment.nodes()]
                if deployment is not None else [])
    tmpfs_stores = list(getattr(rig, "tmpfs_stores", ()))
    for invoker in getattr(rig, "invokers", ()):
        store = getattr(invoker, "tmpfs", None)
        if store is not None:
            tmpfs_stores.append(store)
    connplane = getattr(rig, "connplane", None)
    violations.extend(audit_frame_refcounts(kernels))
    violations.extend(audit_memory_conservation(
        machines, kernels=kernels, descriptor_services=services,
        tmpfs_stores=tmpfs_stores, dfs=getattr(rig, "dfs", None),
        connplane=connplane))
    breakers = []
    if deployment is not None:
        for node in deployment.nodes():
            resilience = getattr(node.pager, "resilience", None)
            if resilience is not None:
                breakers.extend(resilience.breakers.values())
    violations.extend(audit_resilience(
        breakers=breakers, contexts=getattr(rig, "contexts", ()),
        now=rig.env.now))
    tracer = getattr(rig.env, "tracer", None)
    if tracer is not None:
        violations.extend(audit_traces(tracer))
    lineage = getattr(rig, "lineage", None)
    if lineage is not None:
        violations.extend(audit_lineage(lineage, services=services))
    net = getattr(getattr(rig, "fabric", None), "net", None)
    if net is not None:
        violations.extend(audit_fabric(net))
    if connplane is not None:
        violations.extend(audit_connplane(connplane))
    return violations


def _check(violations):
    if violations:
        raise SanitizerViolation(violations)


def check_frame_refcounts(kernels):
    """Raise :class:`SanitizerViolation` on any refcount audit failure."""
    _check(audit_frame_refcounts(kernels))


def check_memory_conservation(*args, **kwargs):
    """Raise :class:`SanitizerViolation` on any conservation failure."""
    _check(audit_memory_conservation(*args, **kwargs))


def check_loop_drained(env):
    """Raise :class:`SanitizerViolation` if the loop does not drain clean."""
    _check(audit_loop_drained(env))


def check_resilience(*args, **kwargs):
    """Raise :class:`SanitizerViolation` on any resilience audit failure."""
    _check(audit_resilience(*args, **kwargs))


def check_traces(tracer):
    """Raise :class:`SanitizerViolation` on any trace audit failure."""
    _check(audit_traces(tracer))


def check_lineage(lineage, services=()):
    """Raise :class:`SanitizerViolation` on any lineage audit failure."""
    _check(audit_lineage(lineage, services=services))


def check_rig(rig, drain=True):
    """Raise :class:`SanitizerViolation` on any audit failure in ``rig``."""
    _check(audit_rig(rig, drain=drain))


def check_fabric(net):
    """Raise :class:`SanitizerViolation` on any fabric conservation failure."""
    _check(audit_fabric(net))


def check_connplane(plane):
    """Raise :class:`SanitizerViolation` on any connection-plane failure."""
    _check(audit_connplane(plane))


from .connplane import audit_connplane  # noqa: E402
from .fabric import audit_fabric  # noqa: E402
