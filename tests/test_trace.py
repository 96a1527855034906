"""Tests for ``repro.trace``: spans, context propagation, analysis, export.

Covers the tracer core (per-process span stacks, spawn inheritance),
the critical-path analyzer (exact partition of a root's duration), both
exporters, the trace sanitizer, the ``experiments trace`` rig with its
analyzer-vs-closed-form check, every page-fault path against its closed
form, and a hypothesis property that arbitrary interleaved spawn trees
always produce a single well-formed span tree.
"""

import json
import os

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import params
from repro.cluster import Cluster
from repro.experiments import tracecli
from repro.experiments.rigs import PrimitiveRig
from repro.faults import FaultInjector
from repro.kernel import VmaKind
from repro.sanitizers import SanitizerViolation, audit_traces, check_traces
from repro.sim import Environment
from repro.trace import (
    Span,
    Tracer,
    breakdown,
    chrome_trace,
    critical_path,
    enabled_by_env,
    maybe_install,
    text_tree,
    write_chrome_trace,
)
from repro.workloads import tc0_profile

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestSpanBasics:
    def test_environment_default_has_no_tracer(self):
        assert Environment().tracer is None

    def test_install_and_times(self):
        env = Environment()
        tracer = Tracer(env)
        assert env.tracer is tracer

        def proc():
            span = tracer.start_span("work", vpn=7)
            assert span.start == 0.0
            assert not span.ended
            with pytest.raises(ValueError):
                _ = span.duration
            yield env.timeout(12.5)
            span.end()
            assert span.ended
            assert span.duration == pytest.approx(12.5)

        env.run(env.process(proc()))
        assert [s.name for s in tracer.spans] == ["work"]
        assert tracer.roots == tracer.spans
        assert tracer.open_spans() == []

    def test_nesting_parent_links(self):
        env = Environment()
        tracer = Tracer(env)

        def proc():
            with tracer.start_span("outer") as outer:
                with tracer.start_span("inner") as inner:
                    assert tracer.current() is inner
                    yield env.timeout(1.0)
                assert tracer.current() is outer

        env.run(env.process(proc()))
        outer, inner = tracer.spans
        assert inner.parent is outer
        assert outer.children == [inner]
        assert tracer.roots == [outer]

    def test_end_is_idempotent_and_stamps_attrs(self):
        env = Environment()
        tracer = Tracer(env)

        def proc():
            span = tracer.start_span("s")
            yield env.timeout(3.0)
            span.end(outcome="ok")
            first = span.end_time
            yield env.timeout(5.0)
            span.end(outcome="late")  # ignored: already closed
            assert span.end_time == first
            assert span.attrs["outcome"] == "ok"

        env.run(env.process(proc()))

    def test_context_manager_records_error_type(self):
        env = Environment()
        tracer = Tracer(env)

        def proc():
            with pytest.raises(RuntimeError):
                with tracer.start_span("risky"):
                    yield env.timeout(1.0)
                    raise RuntimeError("boom")

        env.run(env.process(proc()))
        (span,) = tracer.spans
        assert span.ended
        assert span.attrs["error"] == "RuntimeError"

    def test_set_and_event(self):
        env = Environment()
        tracer = Tracer(env)

        def proc():
            with tracer.start_span("s") as span:
                assert span.set(a=1) is span
                yield env.timeout(2.0)
                span.event("tick", n=3)

        env.run(env.process(proc()))
        (span,) = tracer.spans
        assert span.attrs == {"a": 1}
        assert span.events == [(2.0, "tick", {"n": 3})]

    def test_repr_open_and_closed(self):
        env = Environment()
        tracer = Tracer(env)
        span = tracer.start_span("x")
        assert "open" in repr(span)
        span.end()
        assert "open" not in repr(span)


class TestContextPropagation:
    def test_spawned_process_inherits_current_span(self):
        env = Environment()
        tracer = Tracer(env)

        def child():
            with tracer.start_span("child"):
                yield env.timeout(1.0)

        def parent():
            with tracer.start_span("parent"):
                proc = env.process(child())
                yield env.timeout(0.5)
                yield proc

        env.run(env.process(parent()))
        names = {s.name: s for s in tracer.spans}
        assert names["child"].parent is names["parent"]
        assert tracer.roots == [names["parent"]]

    def test_inheritance_cleaned_up_after_process_exit(self):
        env = Environment()
        tracer = Tracer(env)

        def child():
            yield env.timeout(1.0)

        def parent():
            with tracer.start_span("parent"):
                yield env.process(child())

        env.run(env.process(parent()))
        assert tracer._inherited == {}
        assert tracer._stacks == {}

    def test_root_flag_escapes_current_context(self):
        env = Environment()
        tracer = Tracer(env)

        def proc():
            with tracer.start_span("outer"):
                with tracer.start_span("detached", root=True):
                    yield env.timeout(1.0)

        env.run(env.process(proc()))
        assert sorted(s.name for s in tracer.roots) == ["detached", "outer"]

    def test_disabled_tracer_records_nothing_on_spawn(self):
        env = Environment()
        tracer = Tracer(env, enabled=False)

        def child():
            yield env.timeout(1.0)

        env.run(env.process(child()))
        assert tracer.spans == []
        assert tracer._inherited == {}

    def test_driver_context_spans_are_roots(self):
        env = Environment()
        tracer = Tracer(env)
        span = tracer.start_span("driver")
        assert env.active_process is None
        assert span.parent is None
        span.end()
        assert tracer.roots == [span]

    def test_annotate_targets_current_span_else_mark(self):
        env = Environment()
        tracer = Tracer(env)
        tracer.annotate("orphan", k=1)
        assert tracer.marks == [(0.0, "orphan", {"k": 1})]
        with tracer.start_span("s") as span:
            tracer.annotate("attached", k=2)
        assert span.events == [(0.0, "attached", {"k": 2})]
        assert len(tracer.marks) == 1


class TestInstallation:
    def test_maybe_install_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        env = Environment()
        assert not enabled_by_env()
        assert maybe_install(env) is None
        assert env.tracer is None

    @pytest.mark.parametrize("value", ["", "0", "off", "none", "no",
                                       "false", " OFF ", "False"])
    def test_maybe_install_explicit_off(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE", value)
        assert maybe_install(Environment()) is None

    def test_maybe_install_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        env = Environment()
        tracer = maybe_install(env)
        assert isinstance(tracer, Tracer)
        assert env.tracer is tracer

    def test_existing_tracer_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        env = Environment()
        mine = Tracer(env)
        assert maybe_install(env) is mine


class TestAnalysis:
    def _build(self):
        """root spans [0, 35]: a=[0,10], gap 5, b=[15,35] (b has leaf)."""
        env = Environment()
        tracer = Tracer(env)

        def proc():
            with tracer.start_span("root") as root:
                with tracer.start_span("a"):
                    yield env.timeout(10.0)
                yield env.timeout(5.0)
                with tracer.start_span("b"):
                    with tracer.start_span("b.leaf"):
                        yield env.timeout(20.0)
            self.root = root

        env.run(env.process(proc()))
        return self.root

    def test_breakdown_sums_exactly_to_duration(self):
        root = self._build()
        parts = breakdown(root)
        assert parts == {"a": 10.0, "root": 5.0, "b.leaf": 20.0}
        assert sum(parts.values()) == pytest.approx(root.duration)

    def test_breakdown_max_depth_collapses_detail(self):
        root = self._build()
        parts = breakdown(root, max_depth=1)
        assert parts == {"a": 10.0, "root": 5.0, "b": 20.0}

    def test_breakdown_rejects_open_spans(self):
        env = Environment()
        tracer = Tracer(env)
        span = tracer.start_span("open")
        with pytest.raises(ValueError):
            breakdown(span)

    def test_critical_path_follows_latest_finishers(self):
        root = self._build()
        assert [s.name for s in critical_path(root)] == \
            ["root", "b", "b.leaf"]

    def test_overlapping_children_clip_without_double_counting(self):
        env = Environment()
        tracer = Tracer(env)

        def leg(name, duration):
            with tracer.start_span(name):
                yield env.timeout(duration)

        def proc():
            with tracer.start_span("root") as root:
                first = env.process(leg("first", 10.0))
                second = env.process(leg("second", 6.0))
                yield first
                yield second
            self.root = root

        env.run(env.process(proc()))
        parts = breakdown(self.root)
        # Concurrent legs: with equal starts the earlier finisher sorts
        # first and owns [0, 6); the longer leg is clipped to [6, 10).
        # The partition still sums exactly to the end-to-end duration.
        assert sum(parts.values()) == pytest.approx(self.root.duration)
        assert parts["second"] == pytest.approx(6.0)
        assert parts["first"] == pytest.approx(4.0)


class TestExport:
    def _traced_env(self):
        env = Environment()
        tracer = Tracer(env)

        def proc():
            with tracer.start_span("invocation", machine=2, root=False):
                with tracer.start_span("rpc.call", peer=1) as span:
                    yield env.timeout(4.0)
                    span.event("rpc_retry", attempt=2)

        env.run(env.process(proc()))
        tracer.mark("fault.machine_crash", machine=1)
        return tracer

    def test_chrome_trace_schema(self):
        doc = chrome_trace(self._traced_env())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} <= {"X", "i", "M"}
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"invocation", "rpc.call"}
        for event in complete:
            for key in ("name", "cat", "pid", "tid", "ts", "dur", "args"):
                assert key in event
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in instants} == \
            {"rpc_retry", "fault.machine_crash"}
        by_name = {e["name"]: e for e in instants}
        assert by_name["rpc_retry"]["s"] == "t"
        assert by_name["fault.machine_crash"]["s"] == "g"
        # Both spans ride the same root tree -> same tid.
        assert len({e["tid"] for e in complete}) == 1

    def test_chrome_trace_flags_unfinished_spans(self):
        env = Environment()
        tracer = Tracer(env)
        tracer.start_span("leak")
        doc = chrome_trace(tracer)
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["args"]["unfinished"] is True
        assert event["dur"] == 0.0

    def test_chrome_trace_stringifies_non_primitive_args(self):
        env = Environment()
        tracer = Tracer(env)
        tracer.start_span("s", blob=object()).end()
        doc = chrome_trace(tracer)
        json.dumps(doc)  # must be serializable

    def test_write_chrome_trace_round_trips(self, tmp_path):
        path = str(tmp_path / "trace.json")
        assert write_chrome_trace(self._traced_env(), path) == path
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["traceEvents"]

    def test_text_tree_indents_and_annotates(self):
        tracer = self._traced_env()
        (root,) = tracer.roots
        rendered = text_tree(root)
        lines = rendered.splitlines()
        assert lines[0].startswith("invocation")
        assert any(line.startswith("  rpc.call") for line in lines)
        assert any("* rpc_retry @" in line for line in lines)
        assert "machine=2" in lines[0]
        assert text_tree(root, max_depth=1).splitlines() == lines[:1]


class TestAuditTraces:
    def test_none_and_clean_tracers_pass(self):
        assert audit_traces(None) == []
        env = Environment()
        tracer = Tracer(env)
        with tracer.start_span("ok"):
            pass
        assert audit_traces(tracer) == []
        check_traces(tracer)

    def test_unclosed_span_flagged(self):
        env = Environment()
        tracer = Tracer(env)
        tracer.start_span("leak")
        (violation,) = audit_traces(tracer)
        assert "never ended" in violation
        with pytest.raises(SanitizerViolation):
            check_traces(tracer)

    def test_child_escaping_closed_parent_flagged(self):
        env = Environment()
        tracer = Tracer(env)

        def proc():
            parent = tracer.start_span("parent")
            child = tracer.start_span("child")
            parent.end()
            yield env.timeout(5.0)
            child.end()  # outlives the already-closed parent

        env.run(env.process(proc()))
        violations = audit_traces(tracer)
        assert any("escapes its parent" in v for v in violations)

    def test_end_before_start_flagged(self):
        env = Environment()
        tracer = Tracer(env)
        span = tracer.start_span("warped")
        span.end()
        span.end_time = -1.0  # corrupt the stamp to exercise the check
        violations = audit_traces(tracer)
        assert any("before its start" in v for v in violations)

    def test_orphaned_span_flagged(self):
        env = Environment()
        tracer = Tracer(env)
        span = tracer.start_span("orphan")
        span.end()
        tracer.roots.remove(span)
        violations = audit_traces(tracer)
        assert any("unreachable" in v for v in violations)

    def test_duplicate_invocation_roots_flagged(self):
        env = Environment()
        tracer = Tracer(env)
        tracer.start_span("invocation", root=True, invocation=7).end()
        tracer.start_span("invocation", root=True, invocation=7).end()
        violations = audit_traces(tracer)
        assert any("more than one root" in v for v in violations)


class TestFaultMarks:
    def test_injected_faults_stamp_the_timeline(self):
        env = Environment()
        tracer = Tracer(env)
        cluster = Cluster(env, num_machines=2)
        injector = FaultInjector(env, cluster)
        assert injector.crash_machine(0)
        assert injector.restart_machine(0)
        names = [name for _, name, _ in tracer.marks]
        assert names == ["fault.machine_crash", "fault.machine_restart"]
        assert all(attrs == {"machine": 0} for _, _, attrs in tracer.marks)

    def test_untraced_faults_cost_nothing(self):
        env = Environment()
        cluster = Cluster(env, num_machines=2)
        injector = FaultInjector(env, cluster)
        assert injector.crash_machine(0)  # guard path: env.tracer is None


@pytest.fixture(scope="module")
def warm():
    return tracecli.run_warm_fork()


class TestWarmForkTrace:
    def test_fork_tree_reaches_rpc_and_daemon(self, warm):
        _, fork_span, _ = warm
        names = set()
        stack = [fork_span]
        while stack:
            span = stack.pop()
            names.add(span.name)
            stack.extend(span.children)
        assert "fork.descriptor_query" in names
        assert "rpc.call" in names
        assert "daemon.query_descriptor" in names

    def test_cross_check_within_tolerance(self, warm):
        _, fork_span, expected = warm
        rows, worst = tracecli.cross_check(fork_span, expected)
        assert worst <= tracecli.CROSS_CHECK_TOLERANCE
        assert [row["stage"] for row in rows] == \
            list(tracecli.PHASES) + ["total"]
        # The warm fork pays no socket repair and no RC handshake.
        assert expected["containerize"] == (
            params.LEAN_CONTAINERIZATION + params.DESCRIPTOR_RESTORE_BASE)
        assert expected["rebuild"] == 0.0

    def test_breakdown_partitions_fork_duration(self, warm):
        _, fork_span, _ = warm
        parts = breakdown(fork_span)
        assert sum(parts.values()) == pytest.approx(fork_span.duration)

    def test_trace_audit_clean(self, warm):
        tracer, _, _ = warm
        check_traces(tracer)


class TestClosedForm:
    """The terms the warm fork leaves at zero: rebuild and the wire."""

    @pytest.mark.parametrize("shape, sockets, rebuild, wire", [
        (dict(num_machines=3, num_dfs_osds=1), 1,
         params.SOCKET_RESTORE_LATENCY, 0.0),
        (dict(num_machines=3, num_dfs_osds=1, transport="rc"), 0,
         params.RCQP_CREATE_LATENCY + params.RC_CONNECT_LATENCY, 0.0),
        (dict(num_machines=4, num_racks=2), 0, 0.0,
         params.CROSS_RACK_EXTRA_LATENCY),
    ], ids=["socket_fd", "rc", "cross_rack"])
    def test_analyzer_matches_closed_form(self, warm, shape, sockets,
                                          rebuild, wire):
        rig = PrimitiveRig(**shape)
        parent = rig.run(rig.runtime(0).cold_start(tc0_profile().image))
        for _ in range(sockets):
            parent.task.open_fd("socket")
        _, fork_span, expected = tracecli.trace_fork(rig, parent,
                                                     rig.machine(1))
        _, worst = tracecli.cross_check(fork_span, expected)
        assert worst <= tracecli.CROSS_CHECK_TOLERANCE
        assert expected["rebuild"] == rebuild
        _, _, warm_cost = warm
        for phase in ("descriptor_query", "descriptor_read"):
            assert expected[phase] == pytest.approx(
                warm_cost[phase] + 2 * wire, rel=1e-12)


    def test_rc_lineage_connects_once_per_elder_machine(self):
        """m0 -> m1 -> m0 -> m1 over RC: the third child's elders are m0,
        m1 and m0 again, and it pays one RC setup (to m0), not two."""
        rig = PrimitiveRig(num_machines=3, num_dfs_osds=1, transport="rc")
        container = rig.run(rig.runtime(0).cold_start(tc0_profile().image))
        for here, there in ((0, 1), (1, 0)):
            def hop(container=container, here=here, there=there):
                meta = yield from rig.node(here).fork_prepare(container)
                return (yield from rig.node(there).fork_resume(meta))
            container = rig.run(hop())
        _, fork_span, expected = tracecli.trace_fork(rig, container,
                                                     rig.machine(1))
        _, worst = tracecli.cross_check(fork_span, expected)
        assert worst <= tracecli.CROSS_CHECK_TOLERANCE
        assert expected["rebuild"] == (params.RCQP_CREATE_LATENCY
                                       + params.RC_CONNECT_LATENCY)
        assert round(fork_span.duration / params.MS, 3) == 15.837
        # One RC connection per resume (m1 to m0, m0 to m1, m1 to m0),
        # each created on both of its NICs.
        assert [rig.machine(m).nic.counters["rcqp_created"]
                for m in (0, 1)] == [3, 3]


def _time_fault_paths(rig):
    """Time one fault of each :func:`tracecli.fault_cost` path on an
    idle ``rig``: a TC0 parent on m0 writes five heap pages and forks
    two children onto m1; every fault runs alone.

    Returns one ``(path, reconnect, us)`` per fault.  Whether a READ
    reconnects is set by aiming every DCQP of m1 at the heap's target
    (no reconnect) or at none (reconnect).
    """
    env = rig.env
    k0, k1 = rig.kernel(0), rig.kernel(1)
    node0, node1 = rig.node(0), rig.node(1)
    parent = rig.run(rig.runtime(0).cold_start(tc0_profile().image))
    heap = next(vma for vma in parent.task.address_space.vmas
                if vma.kind == VmaKind.HEAP)
    base = heap.start_vpn

    def fork_two():
        for i in range(5):
            yield from k0.write_page(parent.task, base + i, "page%d" % i)
        meta = yield from node0.fork_prepare(parent)
        child = yield from node1.fork_resume(meta)
        sibling = yield from node1.fork_resume(meta)
        return meta, child, sibling

    meta, child, sibling = rig.run(fork_two())
    _, shadow = node0.service.lookup(meta.handler_id, meta.auth_key)
    child_heap = child.task.address_space.find_vma(base)
    target = child_heap.dct_target_id

    def aim(target_id):
        for qp in node1.net_daemon._dcqps:
            qp.last_target_id = target_id

    def fault(container, vpn):
        start = env.now
        yield from k1.handle_fault(container.task, vpn)
        return env.now - start

    rows = []
    aim(None)
    rows.append(("read", True, rig.run(fault(child, base))))
    aim(target)
    rows.append(("read", False, rig.run(fault(child, base + 1))))
    rows.append(("shared_hit", False, rig.run(fault(sibling, base))))
    grown = child_heap.end_vpn
    child.task.address_space.grow(child_heap, 1)
    rows.append(("demand_zero", False, rig.run(fault(child, grown))))
    # The parent's kernel reclaims page 2: the heap's target is revoked
    # and the page goes to swap.
    rig.run(k0.reclaim(shadow, [base + 2]))
    rows.append(("nak_fallback_swapped", False,
                 rig.run(fault(child, base + 2))))
    rows.append(("nak_fallback", False, rig.run(fault(child, base + 3))))
    aim(None)
    rows.append(("nak_fallback", True, rig.run(fault(child, base + 4))))
    table = child.task.address_space.page_table
    assert [table.entry(base + i).frame.content for i in range(5)] == [
        "page%d" % i for i in range(5)]
    return rows


class TestFaultCost:
    """Each fault path of INTERNALS §3 against :func:`tracecli.fault_cost`,
    untraced (the pager's inline read) and traced (``_fetch_remote`` and
    the QP verbs)."""

    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("shape, wire", [
        (dict(num_machines=3, num_dfs_osds=1), 0.0),
        (dict(num_machines=4, num_racks=2), params.CROSS_RACK_EXTRA_LATENCY),
    ], ids=["same_rack", "cross_rack"])
    def test_each_fault_path_matches_closed_form(self, monkeypatch, shape,
                                                 wire, traced):
        for var in list(os.environ):
            if var.startswith("REPRO_"):
                monkeypatch.delenv(var)
        rig = PrimitiveRig(**shape)
        assert rig.cluster.wire_latency(rig.machine(1),
                                        rig.machine(0)) == wire
        if traced:
            Tracer(rig.env)
        rows = _time_fault_paths(rig)
        assert {path for path, _, _ in rows} == set(tracecli.fault_cost())
        for path, reconnect, measured in rows:
            closed = tracecli.fault_cost(wire, reconnect)[path]
            assert abs(measured - closed) <= 1e-9 * closed, (
                path, reconnect, measured, closed)
        counters = rig.node(1).pager.counters
        assert [counters[name] for name in (
            "rdma_reads", "shared_hits", "revocation_fallbacks",
            "fallback_rpcs")] == [2, 1, 3, 3]
        assert rig.machine(1).nic.counters["dc_read_rejected"] == 3

    def test_one_pager_reads_from_owners_in_two_racks(self, monkeypatch):
        """The inline read keeps one route per owner machine: m2 reads
        from a parent on m0, in its rack, then from one on m1, across
        the spine, then from m0 again, each at its own closed form."""
        for var in list(os.environ):
            if var.startswith("REPRO_"):
                monkeypatch.delenv(var)
        rig = PrimitiveRig(num_machines=4, num_racks=2)
        k2, node2 = rig.kernel(2), rig.node(2)
        image = tc0_profile().image

        def fork_to_m2(owner):
            parent = yield from rig.runtime(owner).cold_start(image)
            meta = yield from rig.node(owner).fork_prepare(parent)
            return (yield from node2.fork_resume(meta))

        children = {owner: rig.run(fork_to_m2(owner)) for owner in (0, 1)}

        def read(owner, vpn):
            task = children[owner].task
            target = task.address_space.find_vma(vpn).dct_target_id
            for qp in node2.net_daemon._dcqps:
                qp.last_target_id = target  # no reconnect
            start = rig.env.now
            yield from k2.handle_fault(task, vpn)
            return rig.env.now - start

        heap = next(vma for vma in children[0].task.address_space.vmas
                    if vma.kind == VmaKind.HEAP)
        wires = []
        for owner, vpn in ((0, heap.start_vpn), (1, heap.start_vpn),
                           (0, heap.start_vpn + 1)):
            wire = rig.cluster.wire_latency(rig.machine(2),
                                            rig.machine(owner))
            wires.append(wire)
            measured = rig.run(read(owner, vpn))
            closed = tracecli.fault_cost(wire)["read"]
            assert abs(measured - closed) <= 1e-9 * closed, (
                owner, measured, closed)
        assert wires == [0.0, params.CROSS_RACK_EXTRA_LATENCY, 0.0]
        assert node2.pager.counters["rdma_reads"] == 3

    def test_same_rack_read_is_the_sum_of_its_legs(self):
        """Fault overhead, half an RTT, the DCT overhead, one page's
        payload with its DCT header, and half an RTT."""
        assert tracecli.fault_cost()["read"] == pytest.approx(
            0.8 + 1.0 + 0.2 + 4136 / params.RDMA_BANDWIDTH + 1.0,
            rel=1e-12)

    def test_internals_quotes_every_fault_cost(self):
        """§3's Cost column prints :func:`tracecli.fault_cost`, so the
        table cannot drift from the model."""
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "docs", "INTERNALS.md")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        section = text[text.index("## 3."):text.index("## 4.")]
        quoted = list(tracecli.fault_cost().values())
        quoted.append(tracecli.fault_cost(reconnect=True)["read"])
        for us in quoted:
            assert "%.4f µs" % us in section, us


class TestTraceCliSmoke:
    def test_smoke_report_and_artifacts(self, tmp_path):
        out_json = str(tmp_path / "TRACE_fork.json")
        report = tracecli.run(smoke=True, out_json=out_json)
        assert report.rows
        with open(out_json) as fh:
            doc = json.load(fh)
        names = {e["name"] for e in doc["traceEvents"]}
        for expected in ("invocation", "lb.dispatch", "mitosis.fork_resume",
                         "rdma.ud_send"):
            assert expected in names, expected
        text = (tmp_path / "TRACE_fork.txt").read_text()
        assert text.startswith("invocation")


def _tree_specs():
    return st.recursive(st.just([]),
                        lambda children: st.lists(children, max_size=3),
                        max_leaves=8)


class TestSpawnTreeProperty:
    @SETTINGS
    @given(spec=_tree_specs(), delay=st.floats(min_value=0.0, max_value=5.0))
    def test_interleaved_spawns_yield_one_wellformed_tree(self, spec, delay):
        env = Environment()
        tracer = Tracer(env)

        def node(sub_specs):
            with tracer.start_span("node"):
                children = [env.process(node(sub)) for sub in sub_specs]
                yield env.timeout(delay)
                for child in children:
                    yield child

        env.run(env.process(node(spec)))

        def count(sub_specs):
            return 1 + sum(count(sub) for sub in sub_specs)

        assert len(tracer.spans) == count(spec)
        assert len(tracer.roots) == 1
        assert audit_traces(tracer) == []
