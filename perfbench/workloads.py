"""The three benchmark workloads: input generation, set-up and drivers.

Every workload is built the same way:

* :func:`make_inputs` draws the workload's inputs (due times, hop
  placements, payload contents) from the benchmark seed with the
  benchmark's own ``random.Random`` — the program only receives them;
* :func:`build` is set-up: it constructs an ``FnCluster`` under
  ``MitosisPolicy`` and registers TC0, which provisions the seed
  container and its descriptor;
* :func:`drive` is the measured phase: it feeds the inputs to the
  cluster, runs it dry slice by slice, and returns one :class:`Unit`
  per unit of work plus the host time of every slice;
* :func:`summarize` turns the units into the simulated end-to-end
  metrics, the output checks and a sha256 digest over the records.

Importing this module imports ``repro``; the set-up probe in ``run.py``
times exactly that import plus :func:`build`.
"""

import hashlib
import random

from repro import params
from repro.fn import FnCluster, MitosisPolicy
from repro.kernel import VmaKind
from repro.metrics import percentile
import repro.workloads
from repro.workloads import func_660323, tc0_profile
from timing import run_sliced

#: Workload parameters at benchmark size and at ``--smoke`` size.  The
#: benchmark sizes put at least ten units beyond p99 (>= 1,000 units;
#: a state_chain unit is one hop, three per chain).
SIZES = {
    "fork_burst": {
        "full": {"forks": 1000},
        "smoke": {"forks": 48},
    },
    "spike_replay": {
        "full": {"scale": 0.01},
        "smoke": {"scale": 0.002},
    },
    "state_chain": {
        "full": {"chains": 340},
        "smoke": {"chains": 16},
    },
}

#: Cluster shape per workload: (invokers, machines).  fork_burst and
#: state_chain use the 8-invoker rig of the 10K-fork experiment;
#: spike_replay the 2-invoker rig of Fig. 12.
CLUSTERS = {
    "fork_burst": (8, 11),
    "spike_replay": (2, 5),
    "state_chain": (8, 11),
}

#: The cluster's own RNG seed (RPC jitter etc.) is part of the program
#: configuration and stays fixed; the benchmark seed only shapes inputs.
CLUSTER_SEED = 0

#: fork_burst and spike_replay: the invocations of one burst are due
#: spread uniformly over this window.  Small against the ~100 ms fork
#: latencies, so a burst stays at peak concurrency, but it makes each
#: seed a distinct input with distinct latencies.
BURST_WINDOW = 1.0 * params.MS

#: spike_replay: invocations per burst, the intra-minute clumping that
#: defeats keep-alive caching (as in ``experiments.spikes``).
SPIKE_BURST = 100
#: Bursts sit in equal slots of their minute; each is jittered by at most
#: this share of a slot, so seeds move bursts but never stack them.
SPIKE_SLOT_JITTER = 0.05

#: state_chain: closed-loop clients, hops per chain, payload pages each
#: hop writes, and the heap page offset the payload starts at (past the
#: 10% of the heap that TC0 itself touches).
CHAIN_CLIENTS = 8
CHAIN_HOPS = 3
CHAIN_PAGES = 32
CHAIN_PAYLOAD_OFFSET = 100

WORKLOADS = tuple(SIZES)

#: Simulated span of one timing slice (``timing.run_sliced``), sized so a
#: slice costs milliseconds to tens of milliseconds of host time.
SLICE = {
    "fork_burst": 1.0 * params.MS,
    "spike_replay": 1.0 * params.MS,
    "state_chain": 5.0 * params.MS,
}

#: How late (us) an open-loop submission may be against its due time:
#: float rounding of ``now + (due - now)`` only.
MAX_LATENESS = 1e-6


class Unit:
    """One unit of work: an invocation, or one hop of a chain.

    ``due`` is when the unit was due to start (latency is timed from it),
    ``finish`` when it completed, ``ok`` whether it ended ``ok`` and
    passed the data check, and ``record`` the tuple the digest covers.
    """

    __slots__ = ("due", "finish", "ok", "record")

    def __init__(self, due, finish, ok, record):
        self.due = due
        self.finish = finish
        self.ok = ok
        self.record = record


# --- Inputs -----------------------------------------------------------------------

def workload_params(name, smoke=False):
    """The size parameters of workload ``name``."""
    if name not in SIZES:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (name, ", ".join(WORKLOADS)))
    invokers, machines = CLUSTERS[name]
    result = dict(SIZES[name]["smoke" if smoke else "full"])
    result.update(invokers=invokers, machines=machines)
    return result


def make_inputs(name, seed, smoke=False):
    """Draw ``name``'s inputs from ``seed``.  Same seed, same inputs."""
    size = workload_params(name, smoke)
    rng = random.Random("%s:%d" % (name, seed))
    if name == "fork_burst":
        return sorted(rng.uniform(0.0, BURST_WINDOW)
                      for _ in range(size["forks"]))
    if name == "spike_replay":
        return spike_arrivals(rng, func_660323().minute_counts,
                              size["scale"])
    return chain_plans(rng, size["chains"], size["invokers"])


def spike_arrivals(rng, minute_counts, scale):
    """Open-loop due times (us) for the thinned Func 660323 spike trace.

    Each minute's thinned count is cut into bursts of
    :data:`SPIKE_BURST` invocations; burst ``k`` of ``n`` starts at
    ``(k + 0.5 + jitter) / n`` of the minute and its invocations are due
    over the following :data:`BURST_WINDOW`.
    """
    arrivals = []
    for minute, count in enumerate(minute_counts):
        total = int(round(count * scale))
        bursts = -(-total // SPIKE_BURST)
        for k in range(bursts):
            slot = (k + 0.5 + rng.uniform(-SPIKE_SLOT_JITTER,
                                          SPIKE_SLOT_JITTER)) / bursts
            start = (minute + slot) * params.MINUTE
            size = min(SPIKE_BURST, total - k * SPIKE_BURST)
            arrivals.extend(start + rng.uniform(0.0, BURST_WINDOW)
                            for _ in range(size))
    arrivals.sort()
    return arrivals


class ChainPlan:
    """One chain: the invoker of each hop and each hop's payload."""

    __slots__ = ("invokers", "payloads")

    def __init__(self, invokers, payloads):
        self.invokers = invokers
        self.payloads = payloads


def chain_plans(rng, chains, invokers):
    """``chains`` plans, each on distinct invokers with random payloads.

    Chain ``i`` is client ``i % CHAIN_CLIENTS``'s round
    ``i // CHAIN_CLIENTS``.  Each round draws one permutation of the
    invokers and client ``c`` runs hop ``h`` on its entry ``c + h``, so
    clients in step never share an invoker: the load stays balanced and
    the per-invoker memory peaks do not hinge on chance collisions.
    """
    plans = []
    order = list(range(invokers))
    for index in range(chains):
        client = index % CHAIN_CLIENTS
        if client == 0:
            rng.shuffle(order)
        hops = tuple(order[(client + hop) % invokers]
                     for hop in range(CHAIN_HOPS))
        payloads = tuple(
            tuple("%016x" % rng.getrandbits(64) for _ in range(CHAIN_PAGES))
            for _ in range(CHAIN_HOPS))
        plans.append(ChainPlan(hops, payloads))
    return plans


# --- Set-up -----------------------------------------------------------------------

def build(name, smoke=False):
    """Set-up: a MITOSIS FnCluster with TC0 registered (seed provisioned).

    Returns ``(fn_cluster, profile)``.
    """
    size = workload_params(name, smoke)
    fn = FnCluster(MitosisPolicy(), num_invokers=size["invokers"],
                   num_machines=size["machines"], num_dfs_osds=2,
                   seed=CLUSTER_SEED)
    profile = tc0_profile()
    fn.env.run(fn.env.process(fn.register(profile)))
    return fn, profile


# --- Measured phase ---------------------------------------------------------------

def drive(name, fn, profile, inputs):
    """Run the measured phase.

    Returns ``(units, slices)``: one :class:`Unit` per unit of work, and
    the host timing of each slice (``timing.run_sliced``).
    """
    if name == "state_chain":
        collect = _start_chains(fn, profile, inputs)
    else:
        collect = _start_open_loop(fn, profile, inputs)
    slices = run_sliced(fn.env, SLICE[name])
    return collect(), slices


def _start_open_loop(fn, profile, due_times):
    """Start submitting one TC0 invocation at each due time (open loop).

    Due times count from the end of set-up.  The submitter runs on the
    simulated clock, so it is never late: each invocation's
    ``submitted_at`` equals its due time up to float rounding, which the
    check in :func:`_invocation_unit` confirms.  Returns the function
    that collects the units once the loop has run dry.
    """
    env = fn.env
    start = env.now
    procs = []

    def submitter():
        for offset in due_times:
            due = start + offset
            if due > env.now:
                yield env.timeout(due - env.now)
            procs.append((due, fn.submit(profile.name)))

    env.process(submitter())
    return lambda: [_invocation_unit(index, due, proc)
                    for index, (due, proc) in enumerate(procs)]


def _invocation_unit(index, due, proc):
    record = proc.value if proc.triggered and proc.ok else None
    if record is None:
        return Unit(due, due, False, (index, due, "no-record"))
    ok = (record.outcome == "ok" and record.start_kind == "mitosis"
          and abs(record.submitted_at - due) <= MAX_LATENESS)
    return Unit(due, record.finished_at, ok, (
        index, due, record.submitted_at, record.started_at,
        record.finished_at, record.start_kind, record.invoker_index,
        record.outcome, record.attempts))


def _start_chains(fn, profile, plans):
    """Start :data:`CHAIN_CLIENTS` closed-loop clients over ``plans``.

    Client ``c`` runs chains ``c``, ``c + CHAIN_CLIENTS``, ... back to
    back.  Returns the function that collects the hop units, in chain
    order, once the loop has run dry.
    """
    env = fn.env
    _, _, seed_meta = fn.policy.seeds[profile.name]
    hops = [None] * len(plans)

    def client(first):
        for index in range(first, len(plans), CHAIN_CLIENTS):
            hops[index] = yield from _run_chain(
                fn, profile, seed_meta, index, plans[index])

    for first in range(min(CHAIN_CLIENTS, len(plans))):
        env.process(client(first))

    def collect():
        units = []
        for index, chain in enumerate(hops):
            units.extend(chain if chain is not None else
                         [Unit(0.0, 0.0, False, (index, hop, "unfinished"))
                          for hop in range(CHAIN_HOPS)])
        return units
    return collect


def _payload_base(container):
    for vma in container.task.address_space.vmas:
        if vma.kind == VmaKind.HEAP:
            return vma.start_vpn + CHAIN_PAYLOAD_OFFSET
    raise ValueError("no heap VMA in %r" % (container,))


def _run_chain(fn, profile, seed_meta, index, plan):
    """One chain.  Generator returning one :class:`Unit` per hop.

    The head is forked from the seed; every later hop from its
    predecessor through ``fork_prepare``/``fork_resume``.  Each hop runs
    TC0 and writes its payload pages; the tail then reads back every
    hop's pages, its ancestors' through the multi-hop owner bits.  A hop
    is due when its predecessor finished (the head: when the client
    issued the chain); the tail hop's unit includes the read-back and
    carries the data check.
    """
    env = fn.env
    containers = []
    prepared = []
    spans = []
    meta = seed_meta
    parent_node = None
    for hop, invoker_index in enumerate(plan.invokers):
        due = env.now
        invoker = fn.invokers[invoker_index]
        node = fn.deployment.node(invoker.machine)
        if parent_node is not None:
            meta = yield from parent_node.fork_prepare(containers[-1])
            prepared.append((parent_node, meta))
        container = yield from node.fork_resume(meta)
        invoker.track(container)
        containers.append(container)
        yield from repro.workloads.execute(env, container, profile)
        base = _payload_base(container) + hop * CHAIN_PAGES
        for offset, value in enumerate(plan.payloads[hop]):
            yield from container.kernel.write_page(
                container.task, base + offset, value)
        spans.append((due, env.now))
        parent_node = node

    tail = containers[-1]
    base = _payload_base(tail)
    misses = 0
    for hop, values in enumerate(plan.payloads):
        for offset, value in enumerate(values):
            got = yield from tail.kernel.touch(
                tail.task, base + hop * CHAIN_PAGES + offset)
            if got != value:
                misses += 1
    spans[-1] = (spans[-1][0], env.now)

    for container in containers:
        fn.invoker_for_machine(container.machine).destroy(container)
    for node, hop_meta in prepared:
        node.retire_descriptor(hop_meta)
    last = len(spans) - 1
    return [Unit(due, finish, hop != last or misses == 0,
                 (index, hop, plan.invokers[hop], due, finish,
                  misses if hop == last else 0))
            for hop, (due, finish) in enumerate(spans)]


# --- Results ----------------------------------------------------------------------

def summarize(name, fn, units):
    """Simulated end-to-end metrics, output checks and digest of one run.

    Besides the per-unit checks, every open-loop submission must have
    left exactly one invocation record, and state_chain, which bypasses
    the load balancer, none.
    """
    latencies = [(u.finish - u.due) / params.MS for u in units if u.ok]
    failed = sum(1 for u in units if not u.ok)
    digest = hashlib.sha256()
    for unit in units:
        digest.update(repr(unit.record).encode())
        digest.update(b"\n")
    sim = {
        "sim_latency_p50_ms": percentile(latencies, 50) if latencies else 0.0,
        "sim_latency_p99_ms": percentile(latencies, 99) if latencies else 0.0,
        "sim_makespan_ms": ((max(u.finish for u in units)
                             - min(u.due for u in units)) / params.MS),
        "sim_mem_peak_mb": (sum(inv.machine.memory.peak
                                for inv in fn.invokers) / params.MB),
    }
    return {
        "sim": sim,
        "attempted": len(units),
        "failed": failed,
        "fail_frac": failed / len(units),
        "records_ok": len(fn.records) == (
            0 if name == "state_chain" else len(units)),
        "events": fn.env.events_processed,
        "digest": digest.hexdigest(),
    }
