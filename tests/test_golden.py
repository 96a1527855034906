"""Golden digests for the default path (no ``REPRO_*`` knob armed).

Three small MITOSIS rigs run with every opt-in layer off:

* ``fork_burst`` — 48 TC0 forks due within 1 ms on 8 invokers;
* ``spike`` — a short open-loop spike of two bursts into 2 invokers;
* ``chains`` — 16 three-hop ``fork_prepare``/``fork_resume`` chains on
  8 invokers, each tail reading every hop's payload back.

Two more arm layers programmatically, so the code that runs only when
a layer is armed is pinned too:

* ``fork_burst_rc`` — the 48-fork burst over RC with the connection
  plane armed;
* ``spike_faults`` — the spike with resilience and fault injection
  armed, under a lossy link, a slow NIC, a NIC flap and a crash of the
  second invoker during the second burst.

Three more run ``fork_burst``, ``fork_burst_rc`` and ``spike_faults``
with doorbell batching armed, so the batched paging path is pinned too:

* ``fork_burst_batched`` — the 48-fork burst with ``batch_pages=8`` and
  a prefetch window of 4 pages;
* ``fork_burst_rc_batched`` — ``fork_burst_rc`` with ``batch_pages=8``;
* ``spike_faults_batched`` — ``spike_faults`` with ``batch_pages=8``.

Each rig pins ``events_processed``, the final ``env.now``, a sha256
over its per-invocation (or per-hop) record tuples, a rolling sha256
over ``(when, event type)`` of every processed event and a sha256 over
``(vpn, remote_pfn, owner_hop)`` of every published descriptor's PTE
snapshots against ``tests/golden/<rig>.json``.  A mismatch means the
default path's simulated behaviour moved.

``tests/golden/validate.json`` pins ``experiments validate`` the same
way: every claim's paper value, measured string and grade, by claim
name.

Every rig and ``validate`` run once more with ``REPRO_TRACE=1`` and must
match the same files: tracing observes the simulation and must not
change it.  A traced page fault reads through the pager's general path,
an untraced one inline, so the traced run also holds the two to the
same event stream.

The tests only compare; rewriting the files is the explicit step
``PYTHONPATH=src python tests/golden/regen.py``, and a change that does
it must say why in CHANGES.md.
"""

import gc
import hashlib
import json
import os

import pytest

from repro import params, sanitizers
from repro.experiments import validate
from repro.faults import LossyLink, MachineCrash, NicFlap, SlowNic
from repro.fn import FnCluster, MitosisPolicy
from repro.kernel import VmaKind
from repro.workloads import execute, tc0_profile

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")

#: chains: closed-loop clients, chains in all, hops per chain, payload
#: pages each hop writes, and the heap offset the payload starts at.
CHAIN_CLIENTS = 8
CHAINS = 16
CHAIN_HOPS = 3
CHAIN_PAGES = 32
CHAIN_PAYLOAD_OFFSET = 100


def _hash_steps(env, digest):
    """Feed ``(when, type(event).__name__)`` of every event ``env``
    processes into ``digest``, through :meth:`Environment.instrument_step`.

    The head entry is read before ``step`` pops it.
    """
    queue = env._queue

    def wrap(step):
        def hashed_step():
            if queue:
                when, _, _, event = queue[0]
                digest.update(
                    ("%r %s\n" % (when, type(event).__name__)).encode())
            step()
        return hashed_step

    env.instrument_step(wrap)


def _hash_snapshots(deployment, digest):
    """Feed ``(vpn, remote_pfn, owner_hop)`` of every PTE snapshot of
    every descriptor a node of ``deployment`` publishes into ``digest``,
    in publish order.

    Handler ids and pids come from process-global counters, so they are
    left out.
    """
    def wrap(publish):
        def hashed_publish(descriptor, shadow_task):
            for vpn, snap in descriptor.pte_snapshots.items():
                digest.update(("%d %r %d\n" % (
                    vpn, snap.remote_pfn, snap.owner_hop)).encode())
            digest.update(b"--\n")
            return publish(descriptor, shadow_task)
        return hashed_publish

    for node in deployment.nodes():
        node.service.publish = wrap(node.service.publish)


def _cluster(invokers, machines, steps, snapshots, arm=None,
             transport="dct", batch_pages=None, prefetch_depth=0):
    """A MITOSIS FnCluster with TC0 registered (seed provisioned).

    With ``steps`` (a sha256 object) every processed event, provisioning
    included, feeds it (:func:`_hash_steps`); with ``snapshots`` every
    published descriptor does (:func:`_hash_snapshots`).  ``arm(fn)``,
    if given, runs before registration (the ``enable_*`` calls).
    ``batch_pages`` and ``prefetch_depth`` go to :class:`FnCluster`.
    """
    fn = FnCluster(MitosisPolicy(), num_invokers=invokers,
                   num_machines=machines, num_dfs_osds=2, seed=0,
                   transport=transport, batch_pages=batch_pages,
                   prefetch_depth=prefetch_depth)
    if steps is not None:
        _hash_steps(fn.env, steps)
    if snapshots is not None:
        _hash_snapshots(fn.deployment, snapshots)
    if arm is not None:
        arm(fn)
    profile = tc0_profile()
    fn.env.run(fn.env.process(fn.register(profile)))
    return fn, profile


def _open_loop(fn, profile, due_times, horizon=None):
    """Submit one TC0 invocation at each due time, run dry (or for
    ``horizon`` when background daemons never let the queue dry), and
    return one record tuple per submission, in submission order."""
    env = fn.env
    start = env.now
    procs = []

    def submitter():
        for offset in due_times:
            due = start + offset
            if due > env.now:
                yield env.timeout(due - env.now)
            procs.append(fn.submit(profile.name))

    env.process(submitter())
    env.run(None if horizon is None else start + horizon)
    records = []
    for index, proc in enumerate(procs):
        r = proc.value
        records.append((index, r.submitted_at, r.started_at, r.finished_at,
                        r.start_kind, r.invoker_index, r.outcome,
                        r.attempts))
    return records


def _payload(chain, hop, offset):
    return "c%d/h%d/p%d" % (chain, hop, offset)


def _payload_base(container):
    for vma in container.task.address_space.vmas:
        if vma.kind == VmaKind.HEAP:
            return vma.start_vpn + CHAIN_PAYLOAD_OFFSET
    raise ValueError("no heap VMA in %r" % (container,))


def _chain(fn, profile, seed_meta, index):
    """One chain.  Generator returning one record per hop plus the
    read-back record (which carries the payload miss count)."""
    env = fn.env
    containers, prepared, records = [], [], []
    meta, parent_node = seed_meta, None
    for hop in range(CHAIN_HOPS):
        invoker = fn.invokers[(index + 3 * hop) % len(fn.invokers)]
        node = fn.deployment.node(invoker.machine)
        if parent_node is not None:
            meta = yield from parent_node.fork_prepare(containers[-1])
            prepared.append((parent_node, meta))
        container = yield from node.fork_resume(meta)
        invoker.track(container)
        containers.append(container)
        yield from execute(env, container, profile)
        base = _payload_base(container) + hop * CHAIN_PAGES
        for offset in range(CHAIN_PAGES):
            yield from container.kernel.write_page(
                container.task, base + offset, _payload(index, hop, offset))
        records.append((index, hop, invoker.index, env.now))
        parent_node = node

    tail = containers[-1]
    base = _payload_base(tail)
    misses = 0
    for hop in range(CHAIN_HOPS):
        for offset in range(CHAIN_PAGES):
            got = yield from tail.kernel.touch(
                tail.task, base + hop * CHAIN_PAGES + offset)
            misses += got != _payload(index, hop, offset)
    records.append((index, "read-back", env.now, misses))

    for container in containers:
        fn.invoker_for_machine(container.machine).destroy(container)
    for node, hop_meta in prepared:
        node.retire_descriptor(hop_meta)
    return records


def _run_chains(fn, profile):
    """:data:`CHAINS` chains from :data:`CHAIN_CLIENTS` closed-loop
    clients; returns every chain's records, in chain order."""
    _, _, seed_meta = fn.policy.seeds[profile.name]
    chains = [None] * CHAINS

    def client(first):
        for index in range(first, CHAINS, CHAIN_CLIENTS):
            chains[index] = yield from _chain(fn, profile, seed_meta, index)

    for first in range(CHAIN_CLIENTS):
        fn.env.process(client(first))
    fn.env.run()
    return [record for chain in chains for record in chain]


#: Due times of the fork burst: 48 forks within 1 ms.
BURST_DUE = [i * 20.0 * params.US for i in range(48)]
#: Due times of the spike: two bursts of 80, 200 ms apart.
SPIKE_DUE = ([i * 10.0 * params.US for i in range(80)]
             + [200.0 * params.MS + i * 10.0 * params.US for i in range(80)])
#: The spike_faults schedule, relative to set-up end.  The seed runs on
#: m0, the other invoker on m1; m1 crashes during the second burst.
SPIKE_FAULTS = [
    LossyLink(0.0, 0, 1, drop_rate=0.2, extra_latency=1.0,
              down_for=50.0 * params.MS),
    SlowNic(0.1 * params.MS, 0, factor=3.0, down_for=20.0 * params.MS),
    NicFlap(30.0 * params.MS, 0, down_for=5.0 * params.MS),
    MachineCrash(210.0 * params.MS, 1, down_for=50.0 * params.MS),
]


def _arm_connplane(fn):
    fn.enable_connplane()


def _arm_faults(fn):
    fn.enable_resilience()
    fn.enable_faults()


def fork_burst(steps=None, snapshots=None, **batching):
    """48 TC0 forks due within 1 ms on 8 invokers."""
    fn, profile = _cluster(8, 11, steps, snapshots, **batching)
    return fn, _open_loop(fn, profile, BURST_DUE)


def fork_burst_rc(steps=None, snapshots=None, **batching):
    """The fork burst over RC, with the connection plane armed."""
    fn, profile = _cluster(8, 11, steps, snapshots, arm=_arm_connplane,
                           transport="rc", **batching)
    return fn, _open_loop(fn, profile, BURST_DUE)


def fork_burst_batched(steps=None, snapshots=None):
    """The fork burst with 8-page ranges and a 4-page prefetch window."""
    return fork_burst(steps, snapshots, batch_pages=8, prefetch_depth=4)


def fork_burst_rc_batched(steps=None, snapshots=None):
    """:func:`fork_burst_rc` with 8-page ranges."""
    return fork_burst_rc(steps, snapshots, batch_pages=8)


def spike(steps=None, snapshots=None):
    """Two bursts of 80 invocations, 200 ms apart, into 2 invokers."""
    fn, profile = _cluster(2, 5, steps, snapshots)
    return fn, _open_loop(fn, profile, SPIKE_DUE)


def spike_faults(steps=None, snapshots=None, **batching):
    """The spike with resilience and faults armed, under
    :data:`SPIKE_FAULTS`; runs 2 s past set-up, since the health
    monitor never lets the queue dry."""
    fn, profile = _cluster(2, 5, steps, snapshots, arm=_arm_faults,
                           **batching)
    fn.faults.apply(SPIKE_FAULTS)
    return fn, _open_loop(fn, profile, SPIKE_DUE, horizon=2.0 * params.SEC)


def spike_faults_batched(steps=None, snapshots=None):
    """:func:`spike_faults` with 8-page ranges."""
    return spike_faults(steps, snapshots, batch_pages=8)


def chains(steps=None, snapshots=None):
    """16 three-hop chains with payload read-back on 8 invokers."""
    fn, profile = _cluster(8, 11, steps, snapshots)
    return fn, _run_chains(fn, profile)


RIGS = {"fork_burst": fork_burst, "fork_burst_rc": fork_burst_rc,
        "spike": spike, "spike_faults": spike_faults, "chains": chains,
        "fork_burst_batched": fork_burst_batched,
        "fork_burst_rc_batched": fork_burst_rc_batched,
        "spike_faults_batched": spike_faults_batched}


def golden_path(name):
    """The committed golden file of rig ``name``."""
    return os.path.join(GOLDEN_DIR, name + ".json")


def _measure(name):
    """Run rig ``name``; returns its cluster and the values its golden
    file pins."""
    steps, snapshots = hashlib.sha256(), hashlib.sha256()
    fn, records = RIGS[name](steps, snapshots)
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
        digest.update(b"\n")
    return fn, {"events_processed": fn.env.events_processed,
                "now": fn.env.now,
                "records": len(records),
                "records_sha256": digest.hexdigest(),
                "snapshots_sha256": snapshots.hexdigest(),
                "steps_sha256": steps.hexdigest()}


def measure(name):
    """Run rig ``name`` and return the values its golden file pins."""
    return _measure(name)[1]


def measure_validate():
    """Run ``experiments validate`` and return what ``validate.json``
    pins: per claim name, its paper value, measured string and grade."""
    return {row["claim"]: {"paper": row["paper"],
                           "measured": row["measured"],
                           "grade": row["grade"]}
            for row in validate.run().rows}


@pytest.fixture
def default_path(monkeypatch):
    """Unset every ``REPRO_*`` knob so the rigs run the default path."""
    for var in list(os.environ):
        if var.startswith("REPRO_"):
            monkeypatch.delenv(var)


@pytest.mark.parametrize("name", sorted(RIGS))
def test_default_path_matches_golden(name, default_path):
    with open(golden_path(name)) as handle:
        golden = json.load(handle)
    assert measure(name) == golden


def test_validate_matches_golden(default_path):
    with open(golden_path("validate")) as handle:
        golden = json.load(handle)
    assert measure_validate() == golden


@pytest.fixture
def traced_path(default_path, monkeypatch):
    """The default path with ``REPRO_TRACE=1``: every rig installs an
    enabled tracer, so every span site and the general page-read path
    (the one a traced fault takes) run."""
    monkeypatch.setenv("REPRO_TRACE", "1")


@pytest.mark.parametrize("name", sorted(RIGS))
def test_tracing_does_not_change_the_simulation(name, traced_path):
    """A traced rig pins what the untraced one does, event for event.

    A traced one-page fault reads through ``RemotePager._fetch_remote``
    and the QP verbs, an untraced one inline, so this also holds the
    inline read to the general path on every rig."""
    with open(golden_path(name)) as handle:
        golden = json.load(handle)
    fn, pinned = _measure(name)
    tracer = fn.env.tracer
    assert tracer is not None and tracer.enabled and tracer.spans
    assert pinned == golden


def test_tracing_does_not_change_validate(traced_path):
    with open(golden_path("validate")) as handle:
        golden = json.load(handle)
    assert measure_validate() == golden


@pytest.mark.parametrize("name", ["chains", "fork_burst", "spike"])
def test_default_path_creates_no_cyclic_garbage(name, default_path):
    """Every object a default-path rig drops is freed by refcounting,
    so the cyclic collector never has to run on its account."""
    gc.collect()
    gc.disable()
    try:
        rig = RIGS[name]()  # referenced across the collection
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_chains_read_back_every_payload(default_path):
    fn, records = chains()
    read_backs = [r for r in records if r[1] == "read-back"]
    assert len(read_backs) == CHAINS
    assert all(r[3] == 0 for r in read_backs)
    assert not fn.records  # chains bypass the load balancer


#: Per rig, counts that show it runs the batched paging branches: range
#: reads and range prefetch; RC range reads; and, under faults, ranges
#: that degrade page by page, dead-parent fallbacks and hedged range
#: reads.  ``pager.`` counts sum every node's pager, ``nic.`` every NIC.
BATCHED_BRANCHES = {
    "fork_burst_batched": {"pager.batched_reads": 194,
                           "pager.prefetched_pages": 4798},
    "fork_burst_rc_batched": {"nic.rc_read_batches": 133},
    "spike_faults_batched": {"pager.batch_fallbacks": 19,
                             "pager.dead_parent_fallbacks": 152,
                             "pager.hedges_issued": 6},
}


def _branch_counts(fn):
    """The pager and NIC counters of ``fn``, summed under ``pager.`` and
    ``nic.``."""
    counts = {}
    sources = [("pager.", node.pager.counters)
               for node in fn.deployment.nodes()]
    sources += [("nic.", machine.nic.counters) for machine in fn.cluster
                if machine.nic is not None]
    for prefix, counters in sources:
        for name, value in counters.as_dict().items():
            counts[prefix + name] = counts.get(prefix + name, 0) + value
    return counts


@pytest.mark.parametrize("name", sorted(BATCHED_BRANCHES))
def test_batched_rigs_exercise_batched_paging(name, default_path):
    fn, _ = RIGS[name]()
    counts = _branch_counts(fn)
    expected = BATCHED_BRANCHES[name]
    assert {key: counts.get(key, 0) for key in expected} == expected
    if fn.faults is not None:
        fn.stop_fault_daemons()
        fn.env.run()
    assert sanitizers.audit_rig(fn) == []
