"""Per-layer instruments for the traced run, installed from outside.

Two instruments split one measured phase across the program's layers:

* :class:`HostSplit` — cProfile self time grouped by ``repro.<package>``.
  C builtins count as ``builtins``; the eight opt-in packages, unarmed
  on the benchmark's default path, as one ``optin`` group; everything
  else (the benchmark itself, ``repro.cluster``/``metrics``/...,
  the standard library) as ``other``.
* :class:`LayerProbe` — wrappers on public entry points of each layer.
  A wrapper counts calls and records the simulated time (``env.now``)
  spent inside a ``yield from`` of the original generator, so the event
  sequence is unchanged and the traced run must reproduce the untraced
  run's digest exactly.

Counts that the program already keeps (``CounterSet``s on kernels,
pagers, NICs and the RPC runtime) are read by :func:`counter_totals`,
in traced and untraced runs alike.
"""

import cProfile
import os
from collections import defaultdict

import repro
import repro.fn.framework
import repro.workloads
from repro import params
from repro.containers import ContainerRuntime
from repro.core import Mitosis
from repro.core.paging import RemotePager
from repro.fn import FnCluster, MitosisPolicy
from repro.kernel import Kernel
from repro.kernel.page_table import PageTable
from repro.metrics import percentile
from repro.rdma import DcQp, RpcRuntime

#: The layers of the host-time split, named after their packages.
LAYERS = ("sim", "kernel", "core", "rdma", "containers", "fn", "workloads")

#: Layers the default path leaves unarmed; together they should read ~0.
OPT_IN = ("connplane", "fabricnet", "lineage", "resilience", "faults",
          "shard", "criu", "dfs")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _group(code):
    """The split group of one profiled function's code object."""
    if isinstance(code, str):
        return "builtins"
    filename = code.co_filename
    if not filename.startswith(_REPRO_DIR):
        return "other"
    package = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
    if package in LAYERS:
        return package
    if package in OPT_IN:
        return "optin"
    return "other"


class HostSplit:
    """cProfile self time of the measured phase, per layer group."""

    def __init__(self):
        self._profiler = cProfile.Profile()

    def __enter__(self):
        self._profiler.enable()
        return self

    def __exit__(self, *exc):
        self._profiler.disable()
        return False

    def seconds(self):
        """``{group: self seconds}`` over every group, zeros included."""
        totals = dict.fromkeys(LAYERS + ("optin", "builtins", "other"), 0.0)
        for entry in self._profiler.getstats():
            totals[_group(entry.code)] += entry.inlinetime
        return totals


class LayerProbe:
    """Counting, sim-timing wrappers on each layer's public entry points.

    Use as a context manager around the measured phase only: entering
    patches the classes (and the two module-level ``execute`` bindings),
    leaving restores the originals.
    """

    #: (owner, attribute, key).  Keys shared by several entry points
    #: pool their samples.
    TIMED = (
        (Mitosis, "fork_resume", "core.fork_resume"),
        (Mitosis, "fork_prepare", "core.fork_prepare"),
        (RemotePager, "fetch", "core.pager.fetch"),
        (RemotePager, "fetch_range", "core.pager.fetch_range"),
        (DcQp, "read", "rdma.read"),
        (DcQp, "read_batch", "rdma.read"),
        (RpcRuntime, "call", "rdma.rpc"),
        (ContainerRuntime, "lean_start_empty", "containers.lean_start"),
        (Kernel, "handle_fault", "kernel.fault"),
        (repro.fn.framework, "execute", "workloads.execute"),
        (repro.workloads, "execute", "workloads.execute"),
    )

    def __init__(self, env):
        self.env = env
        self.calls = defaultdict(int)
        #: key -> simulated durations (us) of completed calls.
        self.sim = defaultdict(list)
        #: Simulated waits (us) from submission to ``policy.start`` entry.
        self.queue_wait = []
        self._submitted = {}
        self._saved = []

    def __enter__(self):
        for owner, attr, key in self.TIMED:
            self._patch(owner, attr, self._timed(getattr(owner, attr), key))
        self._patch(PageTable, "ensure", self._counted(PageTable.ensure))
        self._patch(FnCluster, "invoke", self._invoke(FnCluster.invoke))
        self._patch(MitosisPolicy, "start", self._start(MitosisPolicy.start))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _timed(self, original, key):
        env, calls, samples = self.env, self.calls, self.sim[key]

        def wrapper(*args, **kwargs):
            calls[key] += 1
            started = env.now
            result = yield from original(*args, **kwargs)
            samples.append(env.now - started)
            return result
        return wrapper

    def _counted(self, original):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls["kernel.pte_ensure"] += 1
            return original(*args, **kwargs)
        return wrapper

    def _invoke(self, original):
        env, calls, submitted = self.env, self.calls, self._submitted

        def wrapper(fn_cluster, name):
            # Runs on the invocation's own process, at its submission.
            calls["fn.dispatch"] += 1
            process = env.active_process
            submitted[process] = env.now
            try:
                return (yield from original(fn_cluster, name))
            finally:
                submitted.pop(process, None)
        return wrapper

    def _start(self, original):
        env, waits, submitted = self.env, self.queue_wait, self._submitted

        def wrapper(policy, fn_cluster, invoker, function):
            submitted_at = submitted.get(env.active_process)
            if submitted_at is not None:
                waits.append(env.now - submitted_at)
            return (yield from original(policy, fn_cluster, invoker,
                                        function))
        return wrapper


def counter_totals(fn):
    """Every program counter of ``fn``, summed per layer, as one dict."""
    totals = defaultdict(int)
    sources = [("kernel.", kernel.counters) for kernel in fn.kernels]
    sources += [("pager.", node.pager.counters)
                for node in fn.deployment.nodes()]
    sources += [("nic.", machine.nic.counters)
                for machine in fn.cluster if machine.nic is not None]
    sources.append(("rpc.", fn.rpc.counters))
    for prefix, counters in sources:
        for name, value in counters.as_dict().items():
            totals[prefix + name] += value
    return dict(totals)


def counter_delta(before, after):
    """``after - before`` per counter (the measured phase's counts)."""
    return {name: value - before.get(name, 0)
            for name, value in sorted(after.items())}


def _pct(samples, pct, scale):
    return percentile(samples, pct) / scale if samples else 0.0


def layer_metrics(probe, split, counts, events, records, overhead_pct):
    """The per-layer metrics: ``{name: (value, unit)}``.

    ``counts`` is the measured phase's :func:`counter_delta`, ``events``
    its simulated event count, ``records`` the invocation records it
    produced.
    """
    calls, sim = probe.calls, probe.sim
    ms, us = params.MS, params.US
    shared = counts.get("pager.shared_hits", 0)
    reads = counts.get("pager.rdma_reads", 0)
    metrics = {
        "sim.events": (events, "count"),
        "sim.host_ns_per_event": (
            split["sim"] / events * 1e9 if events else 0.0, "ns"),
        "kernel.faults": (sum(v for k, v in counts.items()
                              if k.startswith("kernel.fault_")), "count"),
        "kernel.fault_remote": (counts.get("kernel.fault_remote", 0),
                                "count"),
        "kernel.fault_cow": (counts.get("kernel.fault_cow", 0), "count"),
        "kernel.fault_demand_zero": (
            counts.get("kernel.fault_demand_zero", 0), "count"),
        "kernel.fault.sim_us_p50": (_pct(sim["kernel.fault"], 50, us), "us"),
        "kernel.fault.sim_us_p99": (_pct(sim["kernel.fault"], 99, us), "us"),
        "kernel.pte_ensure_calls": (calls["kernel.pte_ensure"], "count"),
        "core.fork_resume.calls": (calls["core.fork_resume"], "count"),
        "core.fork_resume.sim_ms_p50": (
            _pct(sim["core.fork_resume"], 50, ms), "ms"),
        "core.fork_resume.sim_ms_p99": (
            _pct(sim["core.fork_resume"], 99, ms), "ms"),
        "core.fork_prepare.calls": (calls["core.fork_prepare"], "count"),
        "core.fork_prepare.sim_ms_p50": (
            _pct(sim["core.fork_prepare"], 50, ms), "ms"),
        "core.pager.fetches": (calls["core.pager.fetch"], "count"),
        "core.pager.fetch.sim_us_p50": (
            _pct(sim["core.pager.fetch"], 50, us), "us"),
        "core.pager.fetch.sim_us_p99": (
            _pct(sim["core.pager.fetch"], 99, us), "us"),
        "core.pager.fetch_range.calls": (calls["core.pager.fetch_range"],
                                         "count"),
        "core.pager.rdma_reads": (reads, "count"),
        "core.pager.shared_hits": (shared, "count"),
        "core.pager.coalesced_faults": (
            counts.get("pager.coalesced_faults", 0), "count"),
        "core.pager.fallback_rpcs": (counts.get("pager.fallback_rpcs", 0),
                                     "count"),
        "core.pager.share_ratio": (
            shared / (shared + reads) if shared + reads else 0.0, "ratio"),
        "rdma.dc_reads": (counts.get("nic.dc_read", 0), "count"),
        "rdma.read_batches": (counts.get("nic.dc_read_batches", 0)
                              + counts.get("nic.rc_read_batches", 0),
                              "count"),
        "rdma.read.sim_us_p50": (_pct(sim["rdma.read"], 50, us), "us"),
        "rdma.read.sim_us_p99": (_pct(sim["rdma.read"], 99, us), "us"),
        "rdma.qp_created": (sum(counts.get("nic." + kind, 0) for kind in (
            "rcqp_created", "dcqp_created", "udqp_created")), "count"),
        "rdma.rpc.calls": (calls["rdma.rpc"], "count"),
        "rdma.rpc.sim_us_p50": (_pct(sim["rdma.rpc"], 50, us), "us"),
        "rdma.rpc.retries": (counts.get("rpc.rpc_retries", 0), "count"),
        "rdma.rpc.timeouts": (counts.get("rpc.rpc_timeouts", 0), "count"),
        "containers.lean_start.calls": (calls["containers.lean_start"],
                                        "count"),
        "containers.lean_start.sim_ms_p50": (
            _pct(sim["containers.lean_start"], 50, ms), "ms"),
        "containers.lean_start.sim_ms_p99": (
            _pct(sim["containers.lean_start"], 99, ms), "ms"),
        "fn.dispatches": (calls["fn.dispatch"], "count"),
        "fn.queue_wait.sim_ms_p50": (_pct(probe.queue_wait, 50, ms), "ms"),
        "fn.queue_wait.sim_ms_p99": (_pct(probe.queue_wait, 99, ms), "ms"),
        "fn.execute.sim_ms_p50": (_pct(
            [r.finished_at - r.started_at for r in records], 50, ms), "ms"),
        "workloads.execute.sim_ms_p50": (
            _pct(sim["workloads.execute"], 50, ms), "ms"),
        "bench.trace_overhead_pct": (overhead_pct, "%"),
    }
    for group, seconds in split.items():
        metrics[group + ".host_self_s"] = (seconds, "s")
    return metrics
