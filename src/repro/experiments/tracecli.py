"""``experiments trace`` — exportable fork timelines + the closed-form check.

Two rigs:

1. **Warm remote fork** on a bare :class:`PrimitiveRig`: one
   ``fork_prepare`` / ``fork_resume`` pair traced end to end.  The
   critical-path analyzer's phase attribution of the ``fork_resume``
   span must equal :func:`resume_cost` — the same phases priced from
   :mod:`repro.params` constants alone — within
   :data:`CROSS_CHECK_TOLERANCE`, so a change to either the analyzer or
   the cost model shows up as a failing phase.
2. **Fork storm** on a small :class:`~repro.fn.FnCluster`: a handful of
   concurrent invocations, each yielding one connected span tree from LB
   admission down to individual RDMA verbs.  The whole trace is audited
   (:func:`repro.sanitizers.check_traces`) and exported as Chrome
   ``trace_event`` JSON (load it at https://ui.perfetto.dev) plus a
   compact text tree.

:func:`prepare_cost` prices one ``fork_prepare`` (docs/INTERNALS.md
§1), :func:`fault_cost` every page-fault path of §3 the same way
:func:`resume_cost` prices the resume phases, and :func:`batch_cost`
one doorbelled READ of n pages; tier-1 times a first and a multi-hop
``fork_prepare``, one fault of each path and one READ of each batch
size against them.
"""

from .. import params
from ..core.descriptor import ForkMeta
from ..kernel.kernel import FORK_LOCAL_BASE, FORK_LOCAL_PER_PTE
from ..fn import FnCluster, MitosisPolicy
from ..sanitizers import check_traces
from ..trace import Tracer, breakdown, critical_path, text_tree, \
    write_chrome_trace
from ..workloads import tc0_profile
from .report import ExperimentReport
from .rigs import PrimitiveRig

#: Analyzer-vs-closed-form disagreement allowed per phase, relative to
#: the closed form.  Both sum the same constants; only the float
#: rounding of absolute timestamps may separate them.
CROSS_CHECK_TOLERANCE = 1e-9

PHASES = ("descriptor_query", "descriptor_read", "containerize", "rebuild")


def resume_cost(rig, descriptor, child):
    """Closed-form ``{phase: us}`` of one uncontended resume of
    ``descriptor`` onto machine ``child`` (not the parent's) of an idle
    ``rig``, from the constants docs/INTERNALS.md §2 names.  The body
    read pays the reconnect of a DCQP's first read to the target."""
    parent = descriptor.machine
    wire = rig.cluster.wire_latency(child, parent)

    def t(nbytes):
        return params.transfer_time(nbytes, params.RDMA_BANDWIDTH)

    sockets = sum(1 for fd in descriptor.fd_specs if fd.kind == "socket")
    rebuild = sockets * params.SOCKET_RESTORE_LATENCY
    if rig.node(child.machine_id).transport == "rc":
        # One RC connection per distinct remote elder machine.
        elders = [parent] + [m for m, _ in descriptor.predecessors]
        remote = {m.machine_id for m in elders} - {child.machine_id}
        rebuild += len(remote) * (params.RCQP_CREATE_LATENCY
                                  + params.RC_CONNECT_LATENCY)
    return {
        "descriptor_query": (params.UD_RPC_BASE_LATENCY + 2 * wire
                             + params.DESCRIPTOR_LOOKUP_LATENCY
                             + t(ForkMeta.NBYTES)
                             + t(params.DESCRIPTOR_QUERY_REPLY_BYTES)),
        "descriptor_read": (params.DCT_RECONNECT_LATENCY
                            + params.RDMA_READ_LATENCY + 2 * wire
                            + params.DCT_REQUEST_OVERHEAD
                            + t(descriptor.nbytes
                                + params.DCT_EXTRA_HEADER_BYTES)),
        "containerize": (params.LEAN_CONTAINERIZATION
                         + params.DESCRIPTOR_RESTORE_BASE),
        "rebuild": rebuild,
    }


def prepare_cost(num_ptes, resident_bytes):
    """Closed-form us of one ``fork_prepare`` on an idle rig, from the
    constants docs/INTERNALS.md §1 names: the shadow's local fork prices
    every PTE of the parent's table, ``num_ptes`` (its ``len()``, which
    counts every vpn of a resumed child's snapshot overlay), then
    condensing the descriptor prices the parent's ``resident_bytes``.
    The DC targets come from the prefilled pool and cost nothing."""
    return (FORK_LOCAL_BASE + FORK_LOCAL_PER_PTE * num_ptes
            + params.FORK_PREPARE_BASE
            + params.FORK_PREPARE_PER_MB * (resident_bytes / params.MB))


def fault_cost(wire=0.0, reconnect=False):
    """Closed-form ``{path: us}`` of one uncontended page fault on an
    idle rig, from the constants docs/INTERNALS.md §3 names.

    ``wire`` is the one-way wire latency between the faulting machine
    and the page's owner (0 within a rack).  With ``reconnect`` the
    paths that post a DC READ pay ``DCT_RECONNECT_LATENCY`` first: the
    round-robin DCQP last read another target.

    * ``shared_hit`` — COW-map a sibling's frame from the shared cache;
    * ``read`` — one one-sided DC READ of the page;
    * ``nak_fallback`` — the READ is NAKed (the target was revoked) and
      the fallback daemon serves the page from the shadow over UD RPC;
    * ``nak_fallback_swapped`` — the same, with the page in swap;
    * ``demand_zero`` — stack/heap growth, no network.
    """
    def t(nbytes):
        return params.transfer_time(nbytes, params.RDMA_BANDWIDTH)

    fault = params.PAGE_FAULT_OVERHEAD
    request = (params.RDMA_READ_LATENCY / 2.0 + wire
               + params.DCT_REQUEST_OVERHEAD)
    if reconnect:
        request += params.DCT_RECONNECT_LATENCY
    response = params.RDMA_READ_LATENCY / 2.0 + wire
    fallback = (params.UD_RPC_BASE_LATENCY + 2 * wire
                + t(params.FALLBACK_RPC_REQUEST_BYTES)
                + params.FALLBACK_RPC_PAGE_LATENCY + t(params.PAGE_SIZE))
    nak = fault + request + response + fallback
    return {
        "shared_hit": fault + params.SHARED_PAGE_COPY_LATENCY,
        "read": (fault + request
                 + t(params.PAGE_SIZE + params.DCT_EXTRA_HEADER_BYTES)
                 + response),
        "nak_fallback": nak,
        "nak_fallback_swapped": nak + params.FALLBACK_STORAGE_PAGE_LATENCY,
        "demand_zero": fault + params.FRAME_ALLOC_LATENCY,
    }


#: The batch sizes INTERNALS §3 quotes :func:`batch_cost` for.
BATCH_SIZES = (1, 2, 8)


def batch_cost(npages, transport="dct", wire=0.0):
    """Closed-form us of one doorbelled READ of ``npages`` pages on an
    idle rig, from the constants docs/INTERNALS.md §3 names: one round
    trip for the whole batch, ``npages - 1`` WQE postings, and the
    payloads back to back on the responder's link.

    ``transport`` is ``"dct"`` (each payload carries the DCT header,
    and the request pays ``DCT_REQUEST_OVERHEAD``; the DCQP already
    points at the target) or ``"rc"``.  ``wire`` is the one-way wire
    latency between the two machines, paid once per leg.
    """
    page = params.PAGE_SIZE
    request = (params.RDMA_READ_LATENCY / 2.0 + wire
               + (npages - 1) * params.DOORBELL_WQE_OVERHEAD)
    if transport == "dct":
        page += params.DCT_EXTRA_HEADER_BYTES
        request += params.DCT_REQUEST_OVERHEAD
    return (request
            + params.transfer_time(npages * page, params.RDMA_BANDWIDTH)
            + params.RDMA_READ_LATENCY / 2.0 + wire)


def trace_fork(rig, parent, child):
    """Trace ``parent``'s ``fork_prepare`` and one ``fork_resume`` of it
    onto machine ``child`` of ``rig``.

    Returns ``(tracer, fork_span, expected)``: the tracer, the resume's
    ``mitosis.fork_resume`` root span, and its :func:`resume_cost`.
    """
    tracer = rig.tracer or Tracer(rig.env)
    home = rig.node(parent.task.machine.machine_id)

    def measure():
        meta = yield from home.fork_prepare(parent)
        yield from rig.node(child.machine_id).fork_resume(meta)
        return meta

    meta = rig.run(measure())
    spans = [s for s in tracer.roots if s.name == "mitosis.fork_resume"]
    if not spans:
        raise AssertionError("no mitosis.fork_resume span was traced")
    fork_span = spans[-1]
    descriptor, _ = home.service.lookup(meta.handler_id, meta.auth_key)
    return tracer, fork_span, resume_cost(rig, descriptor, child)


def run_warm_fork():
    """Trace one warm remote fork of TC0, m0 to m1 (:func:`trace_fork`)."""
    rig = PrimitiveRig(num_machines=3, num_dfs_osds=1)
    parent = rig.run(rig.runtime(0).cold_start(tc0_profile().image))
    return trace_fork(rig, parent, rig.machine(1))


def cross_check(fork_span, expected):
    """Compare the analyzer's phase attribution with the closed form.

    Returns ``(rows, worst)``: one row per phase plus the total, each
    with both values in us, and the largest disagreement relative to
    the closed form (an exact zero is owed exactly).
    """
    parts = breakdown(fork_span, max_depth=1)
    pairs = [(phase, parts.get("fork." + phase, 0.0), expected[phase])
             for phase in PHASES]
    pairs.append(("total", fork_span.duration, sum(expected.values())))
    rows, worst = [], 0.0
    for stage, traced, closed in pairs:
        gap = abs(traced - closed)
        rel = gap / closed if closed else (float("inf") if gap else 0.0)
        worst = max(worst, rel)
        rows.append(dict(stage=stage, analyzer_us=traced,
                         closed_form_us=closed, rel_err="%.1e" % rel))
    return rows, worst


def run_storm(num_invocations, out_json, out_text):
    """Trace a small fork storm and export it.  Returns (tracer, fn)."""
    fn = FnCluster(MitosisPolicy(), num_invokers=2, num_machines=5,
                   num_dfs_osds=2, seed=0)
    tracer = fn.tracer or Tracer(fn.env)
    profile = tc0_profile()

    def setup():
        yield from fn.register(profile)

    fn.env.run(fn.env.process(setup()))
    arrivals = [i * 500.0 for i in range(num_invocations)]

    def replay():
        return (yield from fn.replay(profile.name, arrivals))

    fn.env.run(fn.env.process(replay()))
    check_traces(tracer)
    write_chrome_trace(tracer, out_json)
    invocation_roots = [s for s in tracer.roots if s.name == "invocation"]
    with open(out_text, "w") as fh:
        for root in invocation_roots:
            fh.write(text_tree(root, max_depth=4))
            fh.write("\n")
    return tracer, fn


def run(smoke=False, out_json="TRACE_fork.json", out_text=None):
    """The ``experiments trace`` entry point -> ExperimentReport.

    Raises ``AssertionError`` (with the table) when any fork phase's
    analyzer value and closed form differ by more than
    :data:`CROSS_CHECK_TOLERANCE`.
    """
    if out_text is None:
        out_text = (out_json[:-len(".json")] if out_json.endswith(".json")
                    else out_json) + ".txt"
    report = ExperimentReport(
        "trace", "Warm remote fork: critical-path analyzer vs closed form",
        notes="closed form from repro.params, tolerance %.0e relative; "
              "the chrome export of the storm is in %s"
              % (CROSS_CHECK_TOLERANCE, out_json))
    _, fork_span, expected = run_warm_fork()
    rows, worst = cross_check(fork_span, expected)
    for row in rows:
        report.add(**row)

    storm_n = 6 if smoke else 24
    storm_tracer, fn = run_storm(storm_n, out_json, out_text)
    path = critical_path(fork_span)
    report.add(stage="(storm: %d invocations, %d spans, %d marks)"
                     % (storm_n, len(storm_tracer.spans),
                        len(storm_tracer.marks)))
    report.add(stage="(critical path: %s)"
                     % " > ".join(s.name for s in path))
    if worst > CROSS_CHECK_TOLERANCE:
        raise AssertionError(
            "analyzer and closed-form fork phases differ by %.1e relative "
            "(tolerance %.0e)\n%s"
            % (worst, CROSS_CHECK_TOLERANCE, report.table()))
    return report
