"""Gray failures — a slow-NIC/CPU-steal brownout, with and without resilience.

Replays the Func 660323 spike trace under FN+MITOSIS while the seed
invoker's machine browns out (``slow_nic`` x NIC slowdown plus
``cpu_steal`` execution slowdown — degraded, *not* crashed) for the
middle half of the arrivals, and contrasts three variants:

* ``fail-free``      — degraded modes armed but never fired: must
  reproduce the seed benchmark numbers exactly (zero-cost invariant).
* ``brownout``       — the gray fault with the resilience layer off:
  every fork path still crosses the slowed NIC, so the admission queues
  grow without bound for the whole window and the tail latency tracks
  the backlog, not the service time.
* ``brownout+resil`` — the same fault with ``enable_resilience()``:
  end-to-end deadlines shed requests *while queued*, retry budgets cap
  rework, EWMA suspicion re-routes placement, and the pager's hedged
  reads / circuit breakers keep the paging path bounded.

The acceptance contrast is the ``p99_ms`` / ``max_queue`` pair: bounded
under resilience, runaway without it.
"""

from .. import params, sanitizers
from ..faults import CpuSteal, LossyLink, SlowNic
from ..fn import FnCluster, MitosisPolicy
from ..metrics import percentile
from ..sim import SeededStreams
from ..workloads import func_660323, tc0_profile
from .report import ExperimentReport, ms

#: Degraded-window intensity: NIC latency multiplier and CPU-steal factor
#: applied to the seed invoker's machine (a brownout, not an outage), plus
#: a lossy-link drop rate on the seed<->fork path whose retransmit
#: variance is what hedged reads exploit.
NIC_SLOWDOWN = 600.0
CPU_STEAL = 8.0
LINK_DROP_RATE = 0.3


def _queue_monitor(fn, stop, stats):
    """Sample the total admission backlog until ``stop`` flips.

    Generator process; records the high-water mark of requests queued
    (not yet admitted) across all invokers — the "unbounded queue
    growth" signal the resilience layer is meant to clip.
    """
    while not stop[0]:
        depth = sum(invoker.admission.queued for invoker in fn.invokers)
        if depth > stats["max_queue"]:
            stats["max_queue"] = depth
        yield fn.env.timeout(params.FN_HEARTBEAT_TIMEOUT)


class Brownout:
    """One variant of the replay, built by :func:`build_brownout`.

    Advance ``fn.env`` until :attr:`replay` is processed, as
    ``env.run(until=replay)`` does, then call :meth:`finish`.
    """

    def __init__(self, fn, replay, stop, stats):
        self.fn = fn
        #: The replay process: the variant has run once it is processed.
        self.replay = replay
        self._stop = stop
        #: The queue monitor's samples (``max_queue``).
        self.stats = stats

    def finish(self):
        """Stop the queue monitor and the fault daemons after the replay,
        and audit the rig when sanitizers are on.

        Returns ``(fn_cluster, records, stats)``.
        """
        self._stop[0] = True
        self.fn.stop_fault_daemons()
        if sanitizers.enabled():
            sanitizers.check_rig(self.fn)
        return self.fn, self.replay.value, self.stats


def build_brownout(profile, degraded=True, resilience=False, scale=0.02,
                   num_invokers=2, seed=0, burst_size=100,
                   nic_slowdown=NIC_SLOWDOWN, cpu_steal=CPU_STEAL):
    """One spike replay, optionally browning out the seed machine, built
    but not run: the cluster with ``profile`` registered, the brownout
    scheduled, the queue monitor and the replay process started.

    Returns a :class:`Brownout`.
    """
    fn = FnCluster(MitosisPolicy(), num_invokers=num_invokers,
                   num_machines=num_invokers + 3, num_dfs_osds=2, seed=seed)
    fn.enable_faults()
    if resilience:
        fn.enable_resilience()

    def setup():
        yield from fn.register(profile)

    fn.env.run(fn.env.process(setup()))

    trace = func_660323()
    arrivals = trace.arrival_times(SeededStreams(seed), scale=scale,
                                   burst_size=burst_size)
    if degraded:
        # Brown out the seed host for the middle half of the arrivals:
        # every remote fork pages its working set across this NIC.  The
        # lossy link sits on the seed<->fork path, so its per-read
        # retransmit variance is what a hedged clone can dodge.
        seed_invoker, _, _ = fn.policy.seeds[profile.name]
        machine_id = seed_invoker.machine.machine_id
        other = next(i.machine.machine_id for i in fn.invokers
                     if i.machine.machine_id != machine_id)
        begin = max(0.0, arrivals[len(arrivals) // 4] - fn.env.now)
        end = max(begin, arrivals[(3 * len(arrivals)) // 4] - fn.env.now)
        window = end - begin
        fn.faults.apply([
            SlowNic(begin, machine_id, factor=nic_slowdown, down_for=window),
            CpuSteal(begin, machine_id, factor=cpu_steal, down_for=window),
            LossyLink(begin, machine_id, other, drop_rate=LINK_DROP_RATE,
                      down_for=window),
        ])

    stop = [False]
    stats = {"max_queue": 0}
    fn.env.process(_queue_monitor(fn, stop, stats))

    def replay():
        return (yield from fn.replay(profile.name, arrivals))

    return Brownout(fn, fn.env.process(replay()), stop, stats)


def variants(scale=0.02, num_invokers=2, seed=0, burst_size=100,
             smoke=False):
    """Yield ``(name, Brownout)`` for the fail-free, brownout and
    brownout+resilience variants, building each only when asked for it,
    so a caller that runs and finishes each before the next runs them in
    :func:`run`'s order.  ``smoke`` shrinks the replay for CI (fewer
    arrivals, same fault window proportions and contrast)."""
    if smoke:
        scale, burst_size = scale * 0.4, min(burst_size, 40)
    profile = tc0_profile()
    for variant, degraded, resilience in (("fail-free", False, False),
                                          ("brownout", True, False),
                                          ("brownout+resil", True, True)):
        yield variant, build_brownout(
            profile, degraded=degraded, resilience=resilience, scale=scale,
            num_invokers=num_invokers, seed=seed, burst_size=burst_size)


def _pager_total(fn, name):
    """Sum one pager counter across every MITOSIS node."""
    return sum(node.pager.counters[name] for node in fn.deployment.nodes())


def run(scale=0.02, num_invokers=2, seed=0, burst_size=100, smoke=False):
    """Fail-free vs brownout vs brownout+resilience.

    Returns ``(report, runs dict)``.  ``smoke`` shrinks the replay for
    CI (see :func:`variants`).
    """
    report = ExperimentReport(
        "grayfaults",
        "TC0 spike under a seed-host brownout (slow NIC + CPU steal)",
        notes="fail-free must match the seed numbers; resilience bounds "
              "p99 and the admission backlog by shedding past-deadline "
              "work instead of queueing it")
    runs = {}
    for variant, brownout in variants(scale, num_invokers, seed, burst_size,
                                      smoke):
        brownout.fn.env.run(until=brownout.replay)
        fn, records, stats = brownout.finish()
        runs[variant] = (fn, records, stats)
        completed = [r for r in records if r.outcome in ("ok", "recovered")]
        latencies = [r.latency for r in completed]
        startups = [r.startup_latency for r in completed]
        report.add(
            variant=variant,
            invocations=len(records),
            ok=sum(1 for r in records if r.outcome == "ok"),
            shed=sum(1 for r in records if r.outcome == "shed"),
            lost=sum(1 for r in records if r.outcome == "lost"),
            adm_shed=fn.counters["admission_shed"],
            ddl_shed=fn.counters["deadline_shed"],
            suspected=fn.counters["invokers_suspected"],
            hedges=_pager_total(fn, "hedges_issued"),
            hedge_wins=_pager_total(fn, "hedges_won"),
            brk_fails=_pager_total(fn, "breaker_fast_fails"),
            max_queue=stats["max_queue"],
            p50_ms=ms(percentile(latencies, 50)),
            p99_ms=ms(percentile(latencies, 99)),
            start_p99_ms=ms(percentile(startups, 99)),
        )
    return report, runs
