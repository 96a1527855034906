"""Tests for doorbell-batched range paging (§4.1 cost model).

Covers the QP-level batch verbs, demand fault-around, range-coalesced
prefetch, and — the part that makes batching safe to enable — composition
with sharing, coalescing, cgroup limits, hedging, and every fallback.
"""

import pytest

from repro import params
from repro.cluster import Cluster
from repro.containers import ContainerRuntime, hello_world_image
from repro.core import MitosisDeployment
from repro.core.paging import default_batch_pages
from repro.kernel import Kernel
from repro.rdma import RdmaFabric, RpcRuntime
from repro.sim import Environment
from repro.trace import Tracer


def build_rig(batch_pages=0, prefetch_depth=0, num_machines=2):
    env = Environment()
    cluster = Cluster(env, num_machines=num_machines, num_racks=1)
    fabric = RdmaFabric(env, cluster)
    rpc = RpcRuntime(env, fabric)
    kernels = [Kernel(env, m) for m in cluster]
    runtimes = [ContainerRuntime(env, k) for k in kernels]
    deployment = MitosisDeployment(env, cluster, fabric, rpc, runtimes,
                                   prefetch_depth=prefetch_depth,
                                   batch_pages=batch_pages)
    return env, cluster, kernels, runtimes, deployment


def forked_child(env, cluster, kernels, runtimes, deployment,
                 written_pages=0):
    """Cold-start a parent, optionally write pages, fork to machine 1."""
    node0 = deployment.node(cluster.machine(0))
    node1 = deployment.node(cluster.machine(1))

    def body():
        parent = yield from runtimes[0].cold_start(hello_world_image())
        heap = parent.task.address_space.vmas[3]
        for i in range(written_pages):
            yield from kernels[0].write_page(parent.task,
                                             heap.start_vpn + i, "v%d" % i)
        meta = yield from node0.fork_prepare(parent)
        child = yield from node1.fork_resume(meta)
        return parent, meta, child

    parent, meta, child = env.run(env.process(body()))
    heap = parent.task.address_space.vmas[3]
    return parent, meta, child, heap, node0, node1


def run(env, gen):
    return env.run(env.process(gen))


def count_events(monkeypatch):
    """Record every :meth:`Environment.event` made from now on."""
    created = []
    make = Environment.event

    def event(env):
        created.append(make(env))
        return created[-1]

    monkeypatch.setattr(Environment, "event", event)
    return created


class TestReadBatchVerbs:
    """QP-level doorbell batching: one request packet, per-page payloads."""

    def _rc_pair(self):
        env = Environment()
        cluster = Cluster(env, num_machines=2, num_racks=1)
        fabric = RdmaFabric(env, cluster)
        nic = fabric.nic_of(cluster.machine(0))

        def connect():
            qp = yield from nic.create_rc_qp(cluster.machine(1))
            return qp

        return env, nic, run(env, connect())

    def test_batch_cheaper_than_per_page_reads(self):
        env, nic, qp = self._rc_pair()

        def timed(gen):
            start = env.now
            yield from gen
            return env.now - start

        def eight_singles():
            for _ in range(8):
                yield from qp.read(params.PAGE_SIZE)

        singles = run(env, timed(eight_singles()))
        batch = run(env, timed(qp.read_batch(8, params.PAGE_SIZE)))
        # 7 request/response round trips collapse into WQE-posting costs.
        assert batch < 0.5 * singles

    def _dc_pair(self):
        env = Environment()
        cluster = Cluster(env, num_machines=2, num_racks=1)
        fabric = RdmaFabric(env, cluster)
        nic = fabric.nic_of(cluster.machine(0))
        target = fabric.nic_of(cluster.machine(1))._new_target(user_key=1)
        qp = run(env, nic.create_dc_qp())
        return env, nic, qp, (cluster.machine(1), target.target_id,
                              target.key)

    def _read_one(self, transport, batch):
        """One page read over ``transport`` with ``read_batch(1, ...)`` or
        ``read``, traced: ``(simulated time, NIC counters, spans)``."""
        if transport == "rc":
            env, nic, qp = self._rc_pair()
            verb = (qp.read_batch(1, params.PAGE_SIZE) if batch
                    else qp.read(params.PAGE_SIZE))
        else:
            env, nic, qp, peer = self._dc_pair()
            verb = (qp.read_batch(*peer, 1, params.PAGE_SIZE) if batch
                    else qp.read(*peer, params.PAGE_SIZE))
        tracer = Tracer(env)
        start = env.now
        assert run(env, verb) == params.PAGE_SIZE
        spans = [(span.name, span.attrs) for span in tracer.spans]
        return env.now - start, nic.counters.as_dict(), spans

    def test_batch_of_one_costs_exactly_one_read(self):
        """On both transports ``read_batch(1, ...)`` is exactly ``read``:
        the same simulated time, the same per-page count and no batch
        count, and the same span under an enabled tracer."""
        for transport in ("rc", "dc"):
            single = self._read_one(transport, batch=False)
            batch = self._read_one(transport, batch=True)
            assert batch == single
            _, counters, spans = batch
            assert counters[transport + "_read"] == 1
            assert transport + "_read_batches" not in counters
            assert [name for name, _ in spans] == ["rdma.%s_read" % transport]

    def test_counters_charged_per_page(self):
        env, nic, qp = self._rc_pair()
        run(env, qp.read_batch(8, params.PAGE_SIZE))
        assert nic.counters["rc_read"] == 8
        assert nic.counters["rc_read_batches"] == 1

    def test_empty_batch_rejected(self):
        env, nic, qp = self._rc_pair()
        with pytest.raises(ValueError):
            next(qp.read_batch(0, params.PAGE_SIZE))


class TestFaultAround:
    def test_demand_fault_installs_whole_run(self):
        env, cluster, kernels, runtimes, deployment = build_rig(batch_pages=8)
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment, written_pages=10)

        def body():
            content = yield from kernels[1].touch(child.task, heap.start_vpn)
            table = child.task.address_space.page_table
            present = [table.entry(heap.start_vpn + i).present
                       for i in range(10)]
            return content, present

        content, present = run(env, body())
        assert content == "v0"
        assert present == [True] * 8 + [False, False]
        counters = node1.pager.counters.as_dict()
        assert counters["batched_reads"] == 1
        assert counters["batched_read_pages"] == 8
        assert counters["fault_around_pages"] == 7
        assert counters["rdma_reads"] == 8
        assert node1.nic.counters["dc_read_batches"] == 1

    def test_faulted_around_pages_have_correct_content(self):
        env, cluster, kernels, runtimes, deployment = build_rig(batch_pages=8)
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment, written_pages=8)

        def body():
            yield from kernels[1].touch(child.task, heap.start_vpn)
            contents = []
            for i in range(8):
                contents.append((yield from kernels[1].touch(
                    child.task, heap.start_vpn + i)))
            return contents

        assert run(env, body()) == ["v%d" % i for i in range(8)]

    def test_faulted_around_pages_cost_no_extra_fault_time(self):
        env, cluster, kernels, runtimes, deployment = build_rig(batch_pages=8)
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment)

        def body():
            yield from kernels[1].touch(child.task, heap.start_vpn)
            start = env.now
            yield from kernels[1].touch(child.task, heap.start_vpn + 3)
            return env.now - start

        assert run(env, body()) == 0.0

    def test_batched_scan_faster_in_simulated_time(self):
        def scan_time(batch_pages):
            env, cluster, kernels, runtimes, deployment = build_rig(
                batch_pages=batch_pages)
            parent, meta, child, heap, node0, node1 = forked_child(
                env, cluster, kernels, runtimes, deployment)

            def body():
                start = env.now
                for i in range(32):
                    yield from kernels[1].touch(child.task,
                                                heap.start_vpn + i)
                return env.now - start

            return run(env, body())

        assert scan_time(8) < 0.5 * scan_time(0)

    def test_run_stops_at_present_page(self):
        env, cluster, kernels, runtimes, deployment = build_rig(batch_pages=8)
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment)

        def body():
            # Install vpn+2 first (unbatched), then fault the range start:
            # the run must stop short of the already-present page.
            node1.pager.batch_pages = 0
            yield from kernels[1].touch(child.task, heap.start_vpn + 2)
            node1.pager.batch_pages = 8
            yield from kernels[1].touch(child.task, heap.start_vpn)
            return node1.pager.counters.as_dict()

        counters = run(env, body())
        assert counters["batched_read_pages"] == 2  # vpn and vpn+1 only
        assert counters["fault_around_pages"] == 1

    def test_disabled_batching_never_batches(self):
        env, cluster, kernels, runtimes, deployment = build_rig(batch_pages=0)
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment)

        def body():
            for i in range(8):
                yield from kernels[1].touch(child.task, heap.start_vpn + i)
            return node1.pager.counters.as_dict()

        counters = run(env, body())
        assert counters.get("batched_reads", 0) == 0
        assert counters.get("fault_around_pages", 0) == 0
        assert counters["rdma_reads"] == 8

    def test_batch_pages_one_identical_to_disabled(self):
        def scan(batch_pages):
            env, cluster, kernels, runtimes, deployment = build_rig(
                batch_pages=batch_pages)
            parent, meta, child, heap, node0, node1 = forked_child(
                env, cluster, kernels, runtimes, deployment)

            def body():
                start = env.now
                for i in range(8):
                    yield from kernels[1].touch(child.task,
                                                heap.start_vpn + i)
                return env.now - start

            return run(env, body()), node1.pager.counters.as_dict()

        time_off, counters_off = scan(0)
        time_one, counters_one = scan(1)
        assert time_off == time_one
        assert counters_off == counters_one

    def test_env_var_enables_batching(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAGER_BATCH", "4")
        assert default_batch_pages() == 4
        env, cluster, kernels, runtimes, deployment = build_rig(
            batch_pages=None)
        node1 = deployment.node(cluster.machine(1))
        assert node1.pager.batch_pages == 4

    def test_env_var_unset_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAGER_BATCH", raising=False)
        assert default_batch_pages() == params.PAGER_BATCH_PAGES_DEFAULT == 0


class TestPageAtATime:
    """Batching off: each fault is a run of one, and no event is
    scheduled that changes nothing."""

    def test_lone_remote_fault_event_count(self):
        env, cluster, kernels, runtimes, deployment = build_rig()
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment)
        before = env.events_processed
        run(env, kernels[1].touch(child.task, heap.start_vpn))
        # Initialize, fault overhead, three wire/verb timeouts (DCT
        # reconnect, request, and the payload's transfer and response in
        # one wake-up) and the process's completion: no link grant, no
        # separate transfer timeout, no fetch-done marker nobody waits on.
        assert env.events_processed - before == 6
        assert node1.pager.counters["rdma_reads"] == 1

    @pytest.mark.parametrize("traced, chain", [
        (False, {"handle_fault", "_fetch_body"}),
        (True, {"handle_fault", "_fetch_guarded", "_fetch_body",
                "_fetch_remote", "_read", "stream"}),
    ], ids=["untraced", "traced"])
    def test_lone_remote_fault_generator_chain(self, traced, chain):
        """Untraced, the pager reads the page inline: every resume of
        the fault reaches ``handle_fault`` and ``_fetch_body`` and
        nothing below.  Traced, it reads through ``_fetch_remote``, the
        QP verb and the link."""
        env, cluster, kernels, runtimes, deployment = build_rig()
        if traced:
            Tracer(env)
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment)
        resumed = set()
        queue = env._queue

        def wrap(step):
            def recording_step():
                for callback in queue[0][3].callbacks or ():
                    generator = getattr(getattr(callback, "__self__", None),
                                        "_generator", None)
                    while generator is not None:
                        resumed.add(generator.gi_code.co_name)
                        generator = generator.gi_yieldfrom
                step()
            return recording_step

        env.instrument_step(wrap)
        run(env, kernels[1].handle_fault(child.task, heap.start_vpn))
        assert resumed == chain
        assert node1.pager.counters["rdma_reads"] == 1

    def test_concurrent_faulters_of_one_page_coalesce(self):
        env, cluster, kernels, runtimes, deployment = build_rig()
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment)
        sibling = run(env, node1.fork_resume(meta))
        vpn = heap.start_vpn
        expected = run(env, kernels[0].touch(parent.task, vpn))
        finished = {}

        def fault(name, container):
            content = yield from kernels[1].touch(container.task, vpn)
            finished[name] = env.now
            return content

        def body():
            fetcher = env.process(fault("fetcher", child))
            waiter = env.process(fault("waiter", sibling))
            yield fetcher & waiter
            return fetcher.value, waiter.value

        assert run(env, body()) == (expected, expected)
        counters = node1.pager.counters
        assert counters["rdma_reads"] == 1
        assert counters["coalesced_faults"] == 1
        # Woken at the fetch's completion, the waiter maps the arrived
        # frame from the shared cache.
        assert counters["shared_hits"] == 1
        assert finished["waiter"] == pytest.approx(
            finished["fetcher"] + params.SHARED_PAGE_COPY_LATENCY)

    def test_lone_fetch_creates_no_in_flight_event(self, monkeypatch):
        env, cluster, kernels, runtimes, deployment = build_rig()
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment)
        created = count_events(monkeypatch)
        run(env, kernels[1].touch(child.task, heap.start_vpn))
        assert node1.pager.counters["rdma_reads"] == 1
        assert created == []
        assert node1.pager._inflight == {}

    def test_coalesced_fetch_creates_one_in_flight_event(self, monkeypatch):
        """The first faulter to wait on a lone fetch makes its marker;
        the second waits on the same one, and the fetch wakes both."""
        env, cluster, kernels, runtimes, deployment = build_rig()
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment)
        siblings = [run(env, node1.fork_resume(meta)) for _ in range(2)]
        vpn = heap.start_vpn
        expected = run(env, kernels[0].touch(parent.task, vpn))
        created = count_events(monkeypatch)

        def body():
            faults = [env.process(kernels[1].touch(container.task, vpn))
                      for container in [child] + siblings]
            yield env.all_of(faults)
            return [fault.value for fault in faults]

        assert run(env, body()) == [expected] * 3
        assert len(created) == 1 and created[0].processed
        counters = node1.pager.counters
        assert counters["rdma_reads"] == 1
        assert counters["coalesced_faults"] == 2
        assert counters["shared_hits"] == 2
        assert node1.pager._inflight == {}


class TestRangeComposition:
    """Sharing, coalescing, limits, hedging, fallbacks — all compose."""

    def test_second_child_shares_batched_pages(self):
        env, cluster, kernels, runtimes, deployment = build_rig(batch_pages=8)
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment)

        def body():
            sibling = yield from node1.fork_resume(meta)
            yield from kernels[1].touch(child.task, heap.start_vpn)
            for i in range(8):
                yield from kernels[1].touch(sibling.task, heap.start_vpn + i)
            return node1.pager.counters.as_dict()

        counters = run(env, body())
        assert counters["batched_reads"] == 1  # the sibling refetched nothing
        assert counters["shared_hits"] == 8

    def test_concurrent_fault_coalesces_onto_inflight_range(self):
        env, cluster, kernels, runtimes, deployment = build_rig(batch_pages=8)
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment)

        def fault(vpn):
            yield from kernels[1].touch(child.task, vpn)

        def body():
            first = env.process(fault(heap.start_vpn))
            second = env.process(fault(heap.start_vpn + 3))
            yield first
            yield second
            return node1.pager.counters.as_dict()

        counters = run(env, body())
        assert counters["batched_reads"] == 1
        assert counters["coalesced_faults"] >= 1
        # The coalesced faulter reused the arriving frame, no second wire op.
        assert counters["rdma_reads"] == 8

    def test_cgroup_headroom_caps_fault_around(self):
        from repro.kernel import OomKilled

        env, cluster, kernels, runtimes, deployment = build_rig(batch_pages=8)
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment)

        def body():
            space = child.task.address_space
            child.task.cgroup.assign(
                memory_limit=space.resident_bytes + 3 * params.PAGE_SIZE)
            yield from kernels[1].touch(child.task, heap.start_vpn)
            return child.task.state, node1.pager.counters.as_dict()

        state, counters = run(env, body())
        # Fault-around must not OOM a task the demand fault alone wouldn't:
        # the run was clipped to the remaining headroom.
        assert state != "oom-killed"
        assert counters["batched_read_pages"] == 3

    def test_hedging_composes_with_ranges(self):
        env, cluster, kernels, runtimes, deployment = build_rig(batch_pages=8)
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment)
        node1.pager.enable_resilience()

        def body():
            yield from kernels[1].touch(child.task, heap.start_vpn)
            table = child.task.address_space.page_table
            return [table.entry(heap.start_vpn + i).present
                    for i in range(8)]

        assert run(env, body()) == [True] * 8
        counters = node1.pager.counters.as_dict()
        assert counters["batched_reads"] == 1
        assert len(node1.pager.resilience.hedge)  # per-page latency fed

    def test_revoked_target_degrades_to_per_page_fallback(self):
        env, cluster, kernels, runtimes, deployment = build_rig(batch_pages=8)
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment, written_pages=8)

        def body():
            for target in list(node0.nic.dc_targets.values()):
                node0.nic.destroy_target(target)
            yield from kernels[1].touch(child.task, heap.start_vpn)
            contents = []
            for i in range(8):
                contents.append((yield from kernels[1].touch(
                    child.task, heap.start_vpn + i)))
            return contents

        assert run(env, body()) == ["v%d" % i for i in range(8)]
        counters = node1.pager.counters.as_dict()
        assert counters["batch_fallbacks"] == 1
        assert counters.get("batched_reads", 0) == 0
        # Per-page completion re-detected the precise revocation per page.
        assert counters["revocation_fallbacks"] == 8
        assert counters["fallback_rpcs"] == 8

    def test_total_reclaim_still_correct_with_batching(self):
        env, cluster, kernels, runtimes, deployment = build_rig(batch_pages=8)
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment, written_pages=6)

        def body():
            _, shadow = node0.service.lookup(meta.handler_id, meta.auth_key)
            all_vpns = list(shadow.address_space.page_table.present_vpns())
            yield from kernels[0].reclaim(shadow, all_vpns)
            contents = []
            for i in range(6):
                contents.append((yield from kernels[1].touch(
                    child.task, heap.start_vpn + i)))
            return contents

        assert run(env, body()) == ["v%d" % i for i in range(6)]
        counters = node1.pager.counters.as_dict()
        assert counters.get("rdma_reads", 0) == 0


class TestRangePrefetch:
    def test_prefetch_window_rides_ranges(self):
        env, cluster, kernels, runtimes, deployment = build_rig(
            batch_pages=2, prefetch_depth=6)
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment)

        def body():
            yield from kernels[1].touch(child.task, heap.start_vpn)
            yield env.timeout(1000.0)  # drain the async window
            table = child.task.address_space.page_table
            return [table.entry(heap.start_vpn + i).present
                    for i in range(8)]

        present = run(env, body())
        # Demand fault pulled [vpn, vpn+1]; the window covered the rest.
        assert all(present[:7])
        counters = node1.pager.counters.as_dict()
        assert counters["prefetched_pages"] >= 4
        assert counters["batched_reads"] >= 2

    def test_prefetched_range_content_correct(self):
        env, cluster, kernels, runtimes, deployment = build_rig(
            batch_pages=4, prefetch_depth=4)
        parent, meta, child, heap, node0, node1 = forked_child(
            env, cluster, kernels, runtimes, deployment, written_pages=6)

        def body():
            yield from kernels[1].touch(child.task, heap.start_vpn)
            yield env.timeout(1000.0)
            contents = []
            for i in range(6):
                contents.append((yield from kernels[1].touch(
                    child.task, heap.start_vpn + i)))
            return contents

        assert run(env, body()) == ["v%d" % i for i in range(6)]
