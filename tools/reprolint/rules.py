"""The built-in reprolint rules.

Each rule enforces one simulation-correctness invariant; the mapping from
invariant to rule (and to the runtime sanitizer that cross-validates it)
is documented in ``docs/INTERNALS.md``.
"""

import ast
import re

from .engine import rule

# --- AST helpers --------------------------------------------------------------


def _dotted(node):
    """``a.b.c`` for a Name/Attribute chain, or None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _last_segment(node):
    """The terminal identifier of a receiver expression, or None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _walk_functions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# --- no-wallclock-or-global-random --------------------------------------------

_TIME_ATTRS = {"time", "time_ns", "monotonic", "monotonic_ns",
               "perf_counter", "perf_counter_ns", "process_time", "sleep"}
_DATETIME_ATTRS = {"now", "utcnow", "today"}


@rule("no-wallclock-or-global-random",
      exempt=("src/repro/sim/rng.py",))
def no_wallclock_or_global_random(f):
    """Simulated behaviour must be driven by the sim clock (``env.now``)
    and the seeded ``SeededStreams`` RNG — never wall-clock time or the
    process-global ``random`` module, which silently break run-to-run
    reproducibility."""
    time_aliases, random_aliases, datetime_aliases = set(), set(), set()
    for node in ast.walk(f.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = alias.asname or alias.name
                if alias.name == "time":
                    time_aliases.add(target)
                elif alias.name == "random":
                    random_aliases.add(target)
                elif alias.name == "datetime":
                    datetime_aliases.add(target)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "random":
                yield (node.lineno,
                       "`from random import ...` — draw from a named "
                       "SeededStreams stream instead")
            elif node.module == "time":
                names = {a.asname or a.name for a in node.names
                         if a.name in _TIME_ATTRS}
                if names:
                    yield (node.lineno,
                           "wall-clock import from `time` (%s) — use the "
                           "sim clock (env.now)" % ", ".join(sorted(names)))
            elif node.module == "datetime":
                for alias in node.names:
                    if alias.name in ("datetime", "date"):
                        datetime_aliases.add(alias.asname or alias.name)

    for node in ast.walk(f.tree):
        if not isinstance(node, ast.Attribute):
            continue
        receiver = _dotted(node.value)
        if receiver is None:
            continue
        head = receiver.split(".")[0]
        tail = receiver.split(".")[-1]
        if head in random_aliases and "." not in receiver:
            yield (node.lineno,
                   "global `random.%s` — draw from a named SeededStreams "
                   "stream so subsystems stay independent" % node.attr)
        elif (head in time_aliases and "." not in receiver
              and node.attr in _TIME_ATTRS):
            yield (node.lineno,
                   "wall-clock `time.%s` — simulated events must use the "
                   "sim clock (env.now)" % node.attr)
        elif (node.attr in _DATETIME_ATTRS
              and (tail in datetime_aliases or tail in ("datetime", "date"))):
            yield (node.lineno,
                   "wall-clock `%s.%s` — simulated events must use the sim "
                   "clock (env.now)" % (tail, node.attr))


# --- rpc-deadline -------------------------------------------------------------


def _is_bare_literal(node):
    """True when a timeout expression carries no symbolic reference.

    ``None`` and anything mentioning a name, attribute, or call (a
    ``params`` constant, a caller argument, arithmetic over either) is
    symbolic; a plain number — or pure-literal arithmetic — is bare.
    """
    if isinstance(node, ast.Constant) and node.value is None:
        return False
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute, ast.Call)):
            return False
    return True


#: Resilience call sites whose keyword timeouts fall under rpc-deadline:
#: constructor name -> the timeout-bearing keywords to police.
_TIMEOUT_CTOR_KWARGS = {
    "CircuitBreaker": ("cooldown",),
    "HedgeTracker": ("initial_delay",),
}


@rule("rpc-deadline")
def rpc_deadline(f):
    """Every RPC against the fabric must make an explicit deadline
    decision: a dead peer would hang an un-deadlined call forever instead
    of raising ``RpcTimeout``.  ``deadline=None`` is accepted — it
    documents an intentionally fail-free call on the fast path.

    Timeouts at the resilience call sites (rpc deadlines, breaker
    cooldowns, hedge delays) must additionally come from ``params``
    constants or caller arguments — never bare numeric literals, which
    drift from the tuned constants silently."""
    for node in ast.walk(f.tree):
        if not isinstance(node, ast.Call):
            continue
        kwargs = {kw.arg: kw.value for kw in node.keywords
                  if kw.arg is not None}
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "call"):
            receiver = _last_segment(node.func.value)
            if receiver is None or "rpc" not in receiver.lower():
                continue
            if "deadline" not in kwargs:
                yield (node.lineno,
                       "rpc `.call(...)` without an explicit `deadline=` — "
                       "a dead peer would hang it forever (pass "
                       "`deadline=None` to document a fail-free call)")
            elif _is_bare_literal(kwargs["deadline"]):
                yield (node.lineno,
                       "rpc `.call(...)` with a bare literal `deadline=` — "
                       "take it from a `params` constant or a caller "
                       "argument")
            continue
        ctor = _last_segment(node.func)
        for kwarg in _TIMEOUT_CTOR_KWARGS.get(ctor, ()):
            value = kwargs.get(kwarg)
            if value is not None and _is_bare_literal(value):
                yield (node.lineno,
                       "`%s(%s=...)` with a bare literal — timeouts come "
                       "from `params` constants or caller arguments"
                       % (ctor, kwarg))


# --- no-bare-except -----------------------------------------------------------


@rule("no-bare-except")
def no_bare_except(f):
    """Every handler must name the exception types it swallows so a fault
    (or a sanitizer violation) can never be silently eaten by accident."""
    for node in ast.walk(f.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield node.lineno, "bare `except:` — name the exception"


# --- no-raw-pte-mutation ------------------------------------------------------

_PTE_FIELDS = {"present", "writable", "cow", "remote", "remote_pfn",
               "owner_index", "swap_slot", "frame"}
_FRAME_FIELDS = {"refcount", "live"}
_PTE_OWNERS = ("src/repro/kernel/page_table.py", "src/repro/kernel/frames.py")


@rule("no-raw-pte-mutation", exempt=_PTE_OWNERS)
def no_raw_pte_mutation(f):
    """PTE bit fields and frame refcounts are only mutated through their
    owning APIs (``Pte``'s mutation methods, ``FrameAllocator.ref/unref``)
    so the frame-refcount sanitizer can rely on the bookkeeping."""
    for node in ast.walk(f.tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            receiver = _last_segment(target.value)
            if target.attr in _FRAME_FIELDS:
                yield (node.lineno,
                       "raw write to `.%s` — frame lifetime goes through "
                       "FrameAllocator.ref()/unref()" % target.attr)
            elif (target.attr in _PTE_FIELDS and receiver is not None
                  and "pte" in receiver.lower()):
                yield (node.lineno,
                       "raw write to `%s.%s` — mutate PTEs through the "
                       "owning Pte API (map_frame/unmap/mark_remote/...)"
                       % (receiver, target.attr))


# --- acquire-release-balance --------------------------------------------------

_PAIRS = {"acquire": "release", "charge": "uncharge"}


def _finally_subtrees(func):
    """All nodes living inside a ``finally:`` block within ``func``."""
    safe = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Try):
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    safe.add(id(sub))
    return safe


def _with_subtrees(func):
    """All nodes living inside a ``with`` block within ``func``."""
    inside = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                for sub in ast.walk(item.context_expr):
                    inside.add(id(sub))
    return inside


@rule("acquire-release-balance")
def acquire_release_balance(f):
    """Every ``.acquire()``/``.charge()`` in a function needs a matching
    ``.release()``/``.uncharge()`` on the same receiver reached on all
    exits (a ``finally:`` block) or a context manager — otherwise one
    raised fault leaks the slot forever."""
    for func in _walk_functions(f.tree):
        in_finally = _finally_subtrees(func)
        in_with = _with_subtrees(func)
        acquires, releases = [], {}
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            receiver = _dotted(node.func.value)
            if receiver is None:
                continue
            if attr in _PAIRS:
                acquires.append((node, attr, receiver))
            elif attr in _PAIRS.values():
                releases.setdefault((receiver, attr), []).append(node)
        for node, attr, receiver in acquires:
            if id(node) in in_with:
                continue  # context manager owns the release
            matching = releases.get((receiver, _PAIRS[attr]), [])
            if not matching:
                yield (node.lineno,
                       "`%s.%s()` with no matching `.%s()` in this "
                       "function" % (receiver, attr, _PAIRS[attr]))
            elif not any(id(r) in in_finally for r in matching):
                yield (node.lineno,
                       "`%s.%s()` released outside `finally:` — an "
                       "exception between acquire and release leaks the "
                       "slot" % (receiver, attr))


# --- event-handler-hygiene ----------------------------------------------------

_BLOCKING_ATTRS = {"run", "step"}


def _callback_bodies(f):
    """Bodies of functions registered via ``<event>.callbacks.append(F)``."""
    defs = {}
    for func in _walk_functions(f.tree):
        defs.setdefault(func.name, func)
    for node in ast.walk(f.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "callbacks"
                and node.args):
            continue
        target = node.args[0]
        if isinstance(target, ast.Lambda):
            yield "<lambda>", target
        else:
            name = _last_segment(target)
            if name in defs:
                yield name, defs[name]


@rule("event-handler-hygiene", exempt=("src/repro/sim/loop.py",
                                       "src/repro/experiments/"))
def event_handler_hygiene(f):
    """Event callbacks run *inside* :meth:`Environment.step` and must not
    re-enter the loop with a blocking wait (``env.run()``/``env.step()``);
    library layers never drive the loop at all — only experiment drivers
    may call ``env.run()``."""
    flagged = set()
    for name, func in _callback_bodies(f):
        body = func.body if isinstance(func.body, list) else [func.body]
        for stmt in body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _BLOCKING_ATTRS):
                    receiver = _last_segment(node.func.value)
                    if receiver is not None and receiver.endswith("env"):
                        flagged.add(id(node))
                        yield (node.lineno,
                               "event callback %r re-enters the loop via "
                               "`.%s()` — settle an Event or schedule a "
                               "process instead" % (name, node.func.attr))
    for node in ast.walk(f.tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _BLOCKING_ATTRS
                and id(node) not in flagged):
            receiver = _last_segment(node.func.value)
            if receiver is not None and receiver.endswith("env"):
                yield (node.lineno,
                       "library code drives the loop via `env.%s()` — only "
                       "experiment drivers may run the loop; yield events "
                       "instead" % node.func.attr)


# --- unclosed-span ------------------------------------------------------------


def _start_span_call(node):
    """The first ``.start_span(...)`` call within ``node``, or None."""
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "start_span"):
            return sub
    return None


@rule("unclosed-span")
def unclosed_span(f):
    """Every ``.start_span(...)`` must be closed on all exits: used as a
    context manager, ``.end()``-ed through a name the function holds, or
    handed off (returned/yielded, or passed to another owner).  A span
    that is discarded — or bound to a name that is never ended and never
    escapes — stays open past simulation end and corrupts the
    critical-path attribution the tracer exists for."""
    for func in _walk_functions(f.tree):
        in_with = _with_subtrees(func)
        ended, escaped = set(), set()
        for node in ast.walk(func):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "end"):
                receiver = _last_segment(node.func.value)
                if receiver is not None:
                    ended.add(receiver)
            if (isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom))
                    and node.value is not None):
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name):
                        escaped.add(sub.id)
            if isinstance(node, ast.Call):
                values = list(node.args) + [kw.value for kw in node.keywords]
                for value in values:
                    for sub in ast.walk(value):
                        if isinstance(sub, ast.Name):
                            escaped.add(sub.id)
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Expr):
                call = _start_span_call(stmt.value)
                if call is not None and id(call) not in in_with:
                    yield (stmt.lineno,
                           "`.start_span(...)` result discarded — the span "
                           "can never be ended; use `with`, or bind it and "
                           "`.end()` it in a `finally:`")
            elif isinstance(stmt, ast.Assign):
                call = _start_span_call(stmt.value)
                if call is None or id(call) in in_with:
                    continue
                for target in stmt.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if target.id not in ended and target.id not in escaped:
                        yield (stmt.lineno,
                               "span %r is never `.end()`-ed and never "
                               "escapes this function — close it in a "
                               "`finally:` or hand it off" % target.id)


# --- stale-generation-compare -------------------------------------------------

#: A terminal identifier (or constant subscript key) naming a generation:
#: ``generation``, ``gen``, ``gens``, ``caller_generation``,
#: ``snapshot["generations"]`` — but not ``genre`` or ``regenerate``.
_GEN_NAME_RE = re.compile(r"(^|_)gen(eration)?s?($|_)")

#: Name segments that mark a function as a lease path for the
#: dropped-check half of stale-generation-compare.  Exact segments (plus
#: a ``renew*`` prefix) so ``release()`` never matches.
_LEASE_SEGMENTS = {"lease", "leases", "renew", "renewal", "renewals"}


def _is_gen_term(node):
    """True when ``node`` is a terminal identifier naming a generation:
    the last segment of a Name/Attribute chain or a constant-string
    subscript key (``state["generations"]``)."""
    if isinstance(node, ast.Subscript):
        key = node.slice
        return (isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and _GEN_NAME_RE.search(key.value) is not None)
    segment = _last_segment(node)
    return segment is not None and _GEN_NAME_RE.search(segment) is not None


def _gen_term_name(node):
    if isinstance(node, ast.Subscript):
        return node.slice.value
    return _last_segment(node)


def _is_lease_path(name):
    segments = name.lower().split("_")
    return any(s in _LEASE_SEGMENTS or s.startswith("renew")
               for s in segments)


@rule("stale-generation-compare")
def stale_generation_compare(f):
    """Generations are fencing tokens, and fencing tokens are *ordered*:
    a holder is stale exactly when its token sorts **below** the fence
    floor.  Comparing generations with ``==``/``!=`` re-admits a revived
    primary whose stale token merely *differs* from the current one —
    the classic split-brain bug fencing exists to prevent.  The
    companion check: a lease/renewal path that reads generations but
    never orders them (``<``/``<=``/``>``/``>=``, or an ``is None``
    presence guard) has dropped the fence check entirely."""
    for node in ast.walk(f.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (operands[index], operands[index + 1]):
                if _is_gen_term(side):
                    yield (node.lineno,
                           "generation %r compared with `%s` — fencing "
                           "tokens are ordered; stale means *below* the "
                           "fence floor (`<`), not *different*"
                           % (_gen_term_name(side),
                              "==" if isinstance(op, ast.Eq) else "!="))
                    break
    for func in _walk_functions(f.tree):
        if not _is_lease_path(func.name):
            continue
        loads_gen = False
        guarded = False
        for node in ast.walk(func):
            if (isinstance(node, (ast.Name, ast.Attribute, ast.Subscript))
                    and isinstance(getattr(node, "ctx", None), ast.Load)
                    and _is_gen_term(node)):
                loads_gen = True
            if isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                for index, op in enumerate(node.ops):
                    if isinstance(op, (ast.Eq, ast.NotEq)):
                        continue
                    if (_is_gen_term(operands[index])
                            or _is_gen_term(operands[index + 1])):
                        guarded = True
        if loads_gen and not guarded:
            yield (func.lineno,
                   "lease path %r reads generations but never orders "
                   "them — fence with `held < current` (or guard `is "
                   "None`) before trusting the holder" % func.name)


# --- hot-path-alloc -----------------------------------------------------------

#: Marks the function defined on the next line as a pager hot path.  Not a
#: ``disable=`` pragma — the engine ignores it; only this rule reads it.
_HOT_MARKER_RE = re.compile(r"#\s*reprolint:\s*hot-path\b")


@rule("hot-path-alloc")
def hot_path_alloc(f):
    """Functions marked ``# reprolint: hot-path`` (the pager's batched
    range paths) must not spawn a generator process per page: each
    ``env.process(...)`` costs an ``Initialize`` event plus 3-5
    heap-scheduled events — exactly the per-page overhead the doorbell
    batch exists to amortize.  Coalesce the pages into the range fetch,
    or hoist the spawn to the (unmarked) demand entry point."""
    hot_lines = {lineno for lineno, line in enumerate(f.lines, start=1)
                 if _HOT_MARKER_RE.search(line)}
    if not hot_lines:
        return
    for func in _walk_functions(f.tree):
        top = min([func.lineno] + [d.lineno for d in func.decorator_list])
        if top - 1 not in hot_lines:
            continue
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "process"):
                continue
            receiver = _last_segment(node.func.value)
            if receiver is not None and receiver.endswith("env"):
                yield (node.lineno,
                       "`env.process(...)` inside hot path %r — per-page "
                       "process spawns defeat doorbell batching; coalesce "
                       "into the range fetch" % func.name)


# --- raw-link-capacity --------------------------------------------------------

#: Underscore-separated name components that mark a binding as fabric
#: calibration on their own: `host_bandwidth`, `hop_latency`, ...
#: Deliberately not plain "rate" — drop *rates*, heartbeat rates and
#: arrival rates are workload knobs, not link calibration.
_LINK_TERMS = {"bandwidth", "latency"}

#: "capacity" alone is overloaded (``Resource(capacity=1)`` is a
#: concurrency slot count); it only reads as link calibration next to a
#: fabric word: `link_capacity`, `tor_capacity`, `uplink_capacity`.
_LINK_QUALIFIERS = {"link", "line", "tor", "spine", "host", "nic",
                    "fabric", "uplink", "downlink", "wire"}


def _is_link_name(name):
    """True when ``name`` names a link-calibration quantity."""
    if not name:
        return False
    parts = set(name.lower().split("_"))
    if not _LINK_TERMS.isdisjoint(parts):
        return True
    return "capacity" in parts and not _LINK_QUALIFIERS.isdisjoint(parts)


def _is_zero_literal(node):
    """True for a pure-literal expression that evaluates to zero — the
    neutral element (`extra_latency=0.0` *disables* an effect rather
    than calibrating it), so it cannot drift from ``params``."""
    try:
        value = eval(  # noqa: S307 — literal-only node, no names/calls
            compile(ast.Expression(body=node), "<reprolint>", "eval"),
            {"__builtins__": {}})
    except Exception:
        return False
    return isinstance(value, (int, float)) and value == 0


def _function_defaults(func):
    """Every (param name, default node) pair of a function definition."""
    args = func.args
    positional = args.posonlyargs + args.args
    for param, default in zip(positional[len(positional)
                                         - len(args.defaults):],
                              args.defaults):
        yield param.arg, default
    for param, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield param.arg, default


def _is_raw_link_literal(node):
    """A bare (non-symbolic) numeric literal that is not the zero
    neutral element — the shape that forks calibration."""
    return _is_bare_literal(node) and not _is_zero_literal(node)


@rule("raw-link-capacity", exempt=("src/repro/params.py",))
def raw_link_capacity(f):
    """Fabric calibration — bandwidths, link capacities, hop latencies —
    lives in ``params.py`` so the shared-fabric model stays calibratable
    from one place (the ``audit_fabric`` sanitizer cross-checks the
    arithmetic those constants feed at runtime).  A bare numeric literal
    bound to a bandwidth/capacity/latency name anywhere else forks the
    calibration silently: the incast story changes and no parameter
    sweep can see why.  Derive the value from a ``params`` constant or
    take it from a caller argument."""
    advice = ("link bandwidths/capacities/latencies come from `params` "
              "constants or caller arguments")
    for node in ast.walk(f.tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                name = _last_segment(target)
                if _is_link_name(name) and _is_raw_link_literal(node.value):
                    yield (node.lineno,
                           "bare literal assigned to `%s` — %s"
                           % (name, advice))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            name = _last_segment(node.target)
            if _is_link_name(name) and _is_raw_link_literal(node.value):
                yield (node.lineno,
                       "bare literal assigned to `%s` — %s" % (name, advice))
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if (keyword.arg is not None and _is_link_name(keyword.arg)
                        and _is_raw_link_literal(keyword.value)):
                    yield (keyword.value.lineno,
                           "bare literal passed as `%s=` — %s"
                           % (keyword.arg, advice))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for param, default in _function_defaults(node):
                if _is_link_name(param) and _is_raw_link_literal(default):
                    yield (default.lineno,
                           "bare literal default for `%s` — %s"
                           % (param, advice))


# --- qp-create-outside-connplane ----------------------------------------------

_QP_TYPES = {"RcQp", "DcTarget"}


@rule("qp-create-outside-connplane",
      exempt=("src/repro/rdma/", "src/repro/connplane/"))
def qp_create_outside_connplane(f):
    """RC queue pairs and DC targets are created through the NIC factory
    (``Rnic.create_rc_qp`` / ``create_rc_qps`` / ``create_dc_target``)
    or leased from the connection plane's pool — never constructed
    directly.  A hand-built ``RcQp`` skips the 700/s factory serialization
    and the machine's memory charge, so its cost is invisible to both the
    fork-storm model and the ``audit_connplane`` sanitizer; a hand-built
    ``DcTarget`` mints credentials no descriptor advertises.  Outside the
    RDMA layer and the plane itself, go through the factory or
    ``ConnPlane.pool(machine).acquire(peer)``."""
    for node in ast.walk(f.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _last_segment(node.func)
        if name in _QP_TYPES:
            yield (node.lineno,
                   "direct `%s(...)` construction — QPs come from the NIC "
                   "factory or a ConnPlane pool lease, so creation cost "
                   "and memory charges stay modeled" % name)


# --- snapshot-read-only -------------------------------------------------------

#: Attributes holding a published ``vpn -> PteSnapshot`` map.
_SNAPSHOT_ATTRS = {"pte_snapshots", "snapshot"}
_MUTATING_METHODS = {"update", "pop", "popitem", "clear", "setdefault"}


def _is_snapshot_map(node):
    return isinstance(node, ast.Attribute) and node.attr in _SNAPSHOT_ATTRS


@rule("snapshot-read-only")
def snapshot_read_only(f):
    """A published PTE snapshot map is read-only.  A descriptor prepared
    from a resumed child reads its elder's map one hop up instead of
    copying it (``DerivedSnapshots``), and every child's page table
    overlays its descriptor's map, so writing to a map through
    ``.pte_snapshots`` or ``.snapshot`` silently changes what every
    descendant reads.  Build a new map instead."""
    advice = "mutates a published snapshot map — every descendant reads it"
    for node in ast.walk(f.tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
                and _is_snapshot_map(node.func.value)):
            yield (node.lineno, "`.%s.%s()` %s; build a new map instead"
                   % (node.func.value.attr, node.func.attr, advice))
            continue
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        kind = "deletion" if isinstance(node, ast.Delete) else "assignment"
        for target in targets:
            if (isinstance(target, ast.Subscript)
                    and _is_snapshot_map(target.value)):
                yield (node.lineno, "item %s on `.%s` %s; build a new map "
                       "instead" % (kind, target.value.attr, advice))
