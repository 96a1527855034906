"""Coverage for corner branches across subsystems."""

import pytest

from repro import params
from repro.cluster import Cluster
from repro.criu import TmpfsStore
from repro.dfs import CephLikeDfs
from repro.kernel import KernelError
from repro.rdma import RdmaFabric, RpcRuntime
from repro.sim import Environment


def run(env, gen):
    return env.run(env.process(gen))


class TestDfsWithoutClientNic:
    def test_wire_falls_back_when_client_has_no_rnic(self):
        """The paper's load balancers have no RNIC; DFS clients on such
        machines still move data, just without egress accounting."""
        env = Environment()
        cluster = Cluster(env, num_machines=4, num_racks=1)
        # RNICs on machines 0-1 only; 2 is an OSD host, 3 is NIC-less.
        fabric = RdmaFabric(env, cluster, rdma_machines=cluster.machines[:3])
        dfs = CephLikeDfs(env, fabric, osd_machines=[cluster.machine(2)])
        nicless = cluster.machine(3)

        def body():
            yield from dfs.put(nicless, "obj", params.MB)
            nbytes = yield from dfs.get(nicless, "obj")
            return nbytes

        assert run(env, body()) == params.MB

    def test_nic_of_raises_for_nicless_machine(self):
        env = Environment()
        cluster = Cluster(env, num_machines=2, num_racks=1)
        fabric = RdmaFabric(env, cluster, rdma_machines=[cluster.machine(0)])
        with pytest.raises(ValueError):
            fabric.nic_of(cluster.machine(1))


class TestTmpfsStoreEdges:
    def test_get_missing_raises(self):
        env = Environment()
        cluster = Cluster(env, num_machines=1)
        store = TmpfsStore(cluster.machine(0))
        with pytest.raises(KernelError):
            store.get("nope")

    def test_delete_missing_raises(self):
        env = Environment()
        cluster = Cluster(env, num_machines=1)
        store = TmpfsStore(cluster.machine(0))
        with pytest.raises(KernelError):
            store.delete("nope")


class TestRpcCustomWorkers:
    def test_endpoint_worker_count_honored(self):
        env = Environment()
        cluster = Cluster(env, num_machines=2, num_racks=1)
        fabric = RdmaFabric(env, cluster)
        rpc = RpcRuntime(env, fabric)
        target = cluster.machine(1)
        endpoint = rpc.endpoint(target, workers=4)
        finish = []

        def handler(args):
            yield env.timeout(100.0)
            return None, 8

        endpoint.register("slow", handler)

        def caller():
            yield from rpc.call(cluster.machine(0), target, "slow", {})
            finish.append(env.now)

        for _ in range(4):
            env.process(caller())
        env.run()
        # Four workers: all four calls finish in one wave.
        assert max(finish) - min(finish) < 50.0


class TestReportFormatting:
    def test_none_and_string_cells_render(self):
        from repro.experiments.report import ExperimentReport
        report = ExperimentReport("x", "demo")
        report.add(a=None, b="text", c=1.23456)
        text = report.table()
        assert "None" in text
        assert "text" in text
        assert "1.235" in text

    def test_empty_report_renders(self):
        from repro.experiments.report import ExperimentReport
        assert "(no rows)" in ExperimentReport("x", "demo").table()


class TestAnalyticCrossCheck:
    def test_erlang_c_sanity(self):
        from repro.experiments.analytic import erlang_c
        # Single server M/M/1: P(wait) = rho.
        assert erlang_c(0.5, 1.0, 1) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            erlang_c(2.0, 1.0, 1)  # unstable
        with pytest.raises(ValueError):
            erlang_c(0.5, 1.0, 0)

    def test_kernel_matches_erlang_c(self):
        from repro.experiments import analytic
        report = analytic.run(loads=(0.6, 0.8), jobs=20000)
        for row in report.rows:
            assert row["relative_error"] < 0.15

    def test_wait_grows_with_utilization(self):
        from repro.experiments.analytic import mmc_mean_wait
        low = mmc_mean_wait(0.3 * 6 / 10_000, 10_000, 6)
        high = mmc_mean_wait(0.8 * 6 / 10_000, 10_000, 6)
        assert high > 10 * low
