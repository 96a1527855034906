"""Calibrated cost-model constants for the MITOSIS reproduction.

Every constant is annotated with the paper section (or figure) it comes
from.  Simulated time is in **microseconds**; sizes are in **bytes**.

These are the *physics* the simulation substitutes for real hardware: wire
latencies, NIC processing rates, copy bandwidths, and the per-operation
costs the paper reports in its own microbenchmarks.  All protocol *logic*
(what gets sent, how many times, what state changes) is implemented for
real in the subsystem packages.
"""

import os

# --- Units -----------------------------------------------------------------
US = 1.0
MS = 1000.0 * US
SEC = 1000.0 * MS
MINUTE = 60.0 * SEC

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

PAGE_SIZE = 4 * KB
PAGE_SHIFT = 12

# --- RDMA fabric (§3, §4.2; ConnectX-4 100 Gbps InfiniBand) ------------------
#: One-sided RDMA READ base latency (§3: "low latency (e.g., 2us)").
RDMA_READ_LATENCY = 2.0 * US
#: Link bandwidth: 100 Gbps = 12.5 GB/s, in bytes per microsecond.
RDMA_BANDWIDTH = 12.5 * GB / SEC
#: Extra one-way latency when crossing racks through the second switch.
CROSS_RACK_EXTRA_LATENCY = 0.6 * US
#: RC connection handshake (§4.2: "4ms vs. 2us").
RC_CONNECT_LATENCY = 4.0 * MS
#: RC queue-pair creation throughput per machine (§4.2: "up to 700 QPs/sec").
RCQP_CREATE_RATE_PER_SEC = 700.0
RCQP_CREATE_LATENCY = SEC / RCQP_CREATE_RATE_PER_SEC
#: DCT re-connect cost (§4.2: "reconnect DCQP ... <1us").
DCT_RECONNECT_LATENCY = 0.8 * US
#: DC target creation at the parent (§4.3: "DCQP only uses 200us at the parent").
DC_TARGET_CREATE_LATENCY = 200.0 * US
#: DC targets each RNIC keeps pre-created, so fork_prepare never pays
#: target creation on its critical path (§4.3).
DC_TARGET_POOL_SIZE = 16
#: DC queue pairs each MITOSIS network daemon caches and hands out
#: round-robin, so a fork creates no connection (§4.2).
NET_DAEMON_DCQPS = 8
#: Extra per-request processing for DCT vs RC (§4.2 discussion: prohibitive
#: for <64B payloads, negligible at page granularity).
DCT_REQUEST_OVERHEAD = 0.2 * US
#: DCT wire header is larger than RC's.
DCT_EXTRA_HEADER_BYTES = 40
#: Doorbell batching (§4.1): posting n WQEs and ringing the doorbell once
#: pays a single request latency plus this tiny per-extra-WQE CPU/PCIe cost;
#: the per-page payloads then stream back-to-back at line rate.
DOORBELL_WQE_OVERHEAD = 0.05 * US
#: Default contiguous-range size (pages) for batched remote paging.  0
#: disables batching — the seed's page-at-a-time behavior, bit-identical.
PAGER_BATCH_PAGES_DEFAULT = 0
#: Storage footprints (§4.3): DC target 144B, child-side key 12B, RCQP "several KBs".
DC_TARGET_BYTES = 144
DCT_KEY_BYTES = 12
RCQP_FOOTPRINT_BYTES = 8 * KB
#: UD (FaSST-style) RPC round trip, connection-less (§4.1).
UD_RPC_BASE_LATENCY = 3.0 * US
#: Per-datagram CPU cost when a UD payload spans multiple 4 KB MTUs —
#: why shipping KB-scale descriptors inside RPC replies loses to a single
#: one-sided READ (§4.1's zero-copy argument).
UD_PACKET_OVERHEAD = 0.25 * US
#: Memory-registration cost model (§3.1: "several microseconds even for a
#: small container (e.g., 64MB)", linear in size).
MR_REGISTER_BASE = 1.0 * US
MR_REGISTER_PER_MB = 0.1 * US

# --- Memory / CPU physics ----------------------------------------------------
#: Local DRAM copy bandwidth (memcpy), bytes/us.
DRAM_COPY_BANDWIDTH = 20.0 * GB / SEC
#: Cost of taking + servicing a (minor) page fault in the kernel.
PAGE_FAULT_OVERHEAD = 0.8 * US
#: Cost to allocate and map one physical frame.
FRAME_ALLOC_LATENCY = 0.3 * US
#: CPU cores per machine (§6: two 12-core Xeon E5-2650 v4).
CORES_PER_MACHINE = 24
DRAM_PER_MACHINE = 128 * GB

# --- Containers (§2.3, §4.1, §6) ---------------------------------------------
#: Docker cold start of TC0 (Table 1 caption: "783ms with Docker").
DOCKER_COLD_START = 783.0 * MS
#: Containerization (cgroup etc.) without lean containers (§6: 190ms).
CGROUP_CONTAINERIZATION = 190.0 * MS
#: Lean-container (SOCK-style) containerization (§4.1: "<10ms"; §6: 10ms).
LEAN_CONTAINERIZATION = 10.0 * MS
#: Docker pause/unpause cost for cached containers.  Each warm invocation
#: pays one unpause + one pause on the serialized docker daemon, so one
#: invoker peaks at 1/(2 x 0.385ms) ~= 1,300 starts/s (§6.1), bottlenecked
#: by pausing/unpausing as the paper observes.
CACHE_UNPAUSE_LATENCY = 0.385 * MS
#: Restoring a connected socket via TCP repair (§4.1: "4ms for a connected socket").
SOCKET_RESTORE_LATENCY = 4.0 * MS
#: Per-machine concurrency for sandbox initialisation.  A MITOSIS fork
#: holds a slot for LEAN_CONTAINERIZATION + DESCRIPTOR_RESTORE_BASE =
#: 10.4 ms, so one invoker peaks at 6 / 10.4 ms = 576.9 forks/s, 44.4% of
#: caching's 1,300/s (the paper: 46.4%, §6.1); tests/test_fn.py pins it.
SANDBOX_INIT_SLOTS = 6
#: Number of cgroups kept ready in the lean-container pool per machine.
CGROUP_POOL_SIZE = 64
#: Refilling one pooled cgroup off the critical path.
CGROUP_POOL_REFILL_LATENCY = 3.0 * MS

# --- CRIU baseline (§2.4, Fig. 2) --------------------------------------------
#: Fixed cost to walk /proc and serialize non-memory state at checkpoint.
CRIU_CHECKPOINT_BASE = 6.0 * MS
#: Memory dump bandwidth at checkpoint (Fig. 2c: TC1's 38MB to tmpfs ~= 30ms
#: total, dominated by memory checkpointing).
CRIU_DUMP_BANDWIDTH = 1.1 * GB / SEC
#: Fixed cost to parse image metadata + rebuild process at restore.
CRIU_RESTORE_BASE = 6.0 * MS
#: Reading + parsing image pages from tmpfs at restore, bytes/us.
CRIU_PARSE_BANDWIDTH = 2.5 * GB / SEC
#: Per-page cost of the userfaultfd-style on-demand path from local tmpfs.
CRIU_LAZY_PAGE_LATENCY = 1.2 * US
#: Per-restore CPU cost of interacting with + parsing the many image files
#: (Fig. 10: "CRIU-tmpfs is bottlenecked by interacting and parsing images
#: from the tmpfs", plus the FN create/destroy integration overhead).
CRIU_RESTORE_INTERACT = 4.5 * MS
#: Runtime memory overhead of linking the CRIU binary into each restored
#: container (§6.1: MITOSIS uses 29.8-46.2% less runtime memory).
CRIU_RUNTIME_OVERHEAD_BYTES = 2 * MB
#: Effective goodput of copying an image file-set machine-to-machine.
#: Even over RDMA the copy runs far below line rate (per-file opens,
#: tmpfs reads, destination writes): Fig. 2 (a) has the copy at 73% of
#: TC0's restore+execution, implying ~0.38 GB/s for the 10.2 MB image.
RCOPY_BANDWIDTH = 0.38 * GB / SEC

# --- DFS (Ceph-like; §2.4 Issue#3, Fig. 2) -----------------------------------
#: Client->OSD request software overhead, each way (messenger, crush, pg).
DFS_REQUEST_OVERHEAD = 18.0 * US
#: Metadata lookup round trip at the monitor/MDS.
DFS_METADATA_LATENCY = 120.0 * US
#: Effective per-OSD service bandwidth (in-memory pool, RDMA messenger).
DFS_OSD_BANDWIDTH = 2.2 * GB / SEC
#: Per-request CPU cost at the OSD (messenger, pg lookup, crc), serialized
#: on the OSD's service loop.  Real Ceph OSDs sustain ~20-40k small ops/s;
#: this is the aggregate DFS capacity bound that caps CRIU-remote's
#: cluster throughput to ~1/14th of MITOSIS at the paper's 17 invokers (Fig. 10).
DFS_OSD_REQUEST_CPU = 21.0 * US
#: Per-page cost of the on-demand (lazy) restore path from DFS: this is what
#: makes "+OnDemand DFS" slow down *execution* by 840%/81% (Fig. 2 d,e).
DFS_LAZY_PAGE_LATENCY = 24.0 * US

# --- MITOSIS (§4) -------------------------------------------------------------
#: Descriptor sizes are KB-scale vs MB-scale images (§4.1).
DESCRIPTOR_BASE_BYTES = 2 * KB
DESCRIPTOR_PER_VMA_BYTES = 256
DESCRIPTOR_PER_PTE_BYTES = 8
#: fork_prepare: copy process data structures to the condensed descriptor
#: (Fig. 14a discussion: "17.24ms vs 2.8ms" checkpoint-vs-prepare for TC0+payload).
FORK_PREPARE_BASE = 2.0 * MS
FORK_PREPARE_PER_MB = 0.04 * MS
#: Restoring execution structures from a fetched descriptor (§4.1: "(2) is
#: fast (e.g., takes sub-millisecond)").
DESCRIPTOR_RESTORE_BASE = 0.4 * MS
#: Descriptor-table lookup at the parent's daemon, per address query.
DESCRIPTOR_LOOKUP_LATENCY = 1.0 * US
#: Address-query reply: address + size + the piggybacked DCT keys (§4.2).
DESCRIPTOR_QUERY_REPLY_BYTES = 256
#: Fallback-daemon RPC page read: slower than one-sided RDMA (§4.3).
FALLBACK_RPC_PAGE_LATENCY = 12.0 * US
#: The fallback page request on the wire: handler id, auth key and vpn.
FALLBACK_RPC_REQUEST_BYTES = 64
#: Loading a cold page from secondary storage in the fallback daemon.
FALLBACK_STORAGE_PAGE_LATENCY = 80.0 * US
#: Kernel threads per machine serving descriptor fetches + fallbacks (§6).
MITOSIS_DAEMON_THREADS = 2
#: Local copy-on-write reuse of an already-fetched remote page (§4.3
#: "remote page sharing").
SHARED_PAGE_COPY_LATENCY = 0.4 * US
#: Maximum remote-fork lineage depth encodable in the 4 PTE owner bits
#: (§4.4: "a maximum of 15-hops").
MAX_FORK_HOPS = 15

# --- Fn framework (§5, §6) -----------------------------------------------------
#: Load balancer dispatch overhead per request.
LB_DISPATCH_LATENCY = 150.0 * US
#: Concurrent requests one Fn invoker admits; waiting behind stalled cold
#: starts is the "queuing effect" that blows up FN's tail latency under
#: spikes (§6.2).
FN_INVOKER_CONCURRENCY = 8
#: Keepalive for FN-cached containers (§6.2: evicted after 30 seconds).
FN_CACHE_KEEPALIVE = 30.0 * SEC
#: Fn-flow data-passing baseline (Fig. 14a): an HTTP/Java relay service —
#: heavyweight per-hop latency and modest goodput, which is why MITOSIS
#: wins above the piggyback threshold (26-66% faster, §6.3).
FLOW_BASE_LATENCY = 10.0 * MS
FLOW_BANDWIDTH = 0.25 * GB / SEC
#: Payloads below this are piggybacked in the function request by flow.
FLOW_PIGGYBACK_LIMIT = 100 * KB

# --- Cluster (§6 experimental setup) -------------------------------------------
NUM_MACHINES = 24
NUM_INVOKERS = 18
NUM_RACKS = 2

# --- Fault injection & recovery (repro/faults) ----------------------------------
#: Default per-call RPC deadline once fault handling is armed.  The healthy
#: round trip is ~10 us, but the two daemon worker threads queue tens of
#: milliseconds deep under spike load — the deadline detects *dead peers*,
#: not overload, so it sits well above worst-case queueing delay.
RPC_DEFAULT_DEADLINE = 50.0 * MS
#: Retries after the first deadline expiry (attempts = retries + 1).
RPC_MAX_RETRIES = 2
#: Exponential backoff between RPC retries: base * 2**attempt, capped.
RPC_RETRY_BACKOFF_BASE = 0.5 * MS
RPC_RETRY_BACKOFF_CAP = 8.0 * MS
#: Backoff jitter fraction (multiplier drawn from [1, 1 + jitter)), taken
#: from the deterministic ``rpc-retry-jitter`` stream of ``sim.rng``.
RPC_RETRY_JITTER = 0.5
#: Server-side cost to reject an unknown RPC method (table miss + NAK reply).
RPC_UNKNOWN_METHOD_LATENCY = 1.0 * US
#: Transport retry budget before a DC/RC verb completes in error when the
#: peer NIC is unreachable (the IB retry_cnt x timeout knob, scaled down).
DC_RETRY_TIMEOUT = 4.0 * MS
RC_RETRY_TIMEOUT = 4.0 * MS
#: Descriptor lease lifetime (rFaaS-style expiry of RDMA-exposed state).
LEASE_DURATION = 30.0 * SEC
#: Parent-side lease renewal period (must be well under LEASE_DURATION).
LEASE_RENEW_PERIOD = 10.0 * SEC
#: Time for a crashed machine to reboot when the schedule asks for restart.
MACHINE_RESTART_LATENCY = 5.0 * SEC
#: Invoker health probing by the load balancer.
FN_HEARTBEAT_PERIOD = 1.0 * SEC
FN_HEARTBEAT_TIMEOUT = 50.0 * MS
FN_HEARTBEAT_MISS_LIMIT = 2
#: End-to-end attempts (first try + re-admissions) before an invocation is
#: recorded as lost.
FN_INVOKE_MAX_ATTEMPTS = 4
#: LB-side timeout for a dispatch into a dead-but-undetected invoker.
FN_DISPATCH_TIMEOUT = 10.0 * MS
#: Backoff before re-admitting a failed invocation (doubled per attempt).
FN_READMIT_BACKOFF = 50.0 * MS

# --- Gray-failure & overload resilience (repro/resilience) -----------------------
#: Per-retransmission penalty a reliable transport (RC/DC) pays when a
#: lossy link drops its packet: the IB transport retransmit timer, scaled
#: with the rest of the fault timeouts.
LOSSY_RETX_PENALTY = 0.5 * MS
#: End-to-end invocation deadline once resilience is armed: requests that
#: cannot finish inside this budget are shed while queued instead of
#: occupying admission slots (the §6.2 queuing effect, bounded).
FN_INVOCATION_DEADLINE = 2.0 * SEC
#: Retries granted to one invocation, shared across *every* retry it
#: triggers below the LB (RPC resends, fetch fallbacks, re-dispatches) —
#: a retry budget in the Google-SRE sense, so storms cannot amplify.
FN_RETRY_BUDGET = 6
#: Consecutive fallback-RPC failures before a peer's breaker opens.
BREAKER_FAILURE_THRESHOLD = 3
#: Sim-time an open breaker waits before admitting a half-open probe.
BREAKER_COOLDOWN = 200.0 * MS
#: Hedged-read trigger before enough samples exist for a p99 estimate.
HEDGE_INITIAL_DELAY = 200.0 * US
#: Observed-latency percentile that arms the hedge (tail-tolerance
#: standard: clone only probable stragglers, ~1% of requests).
HEDGE_PERCENTILE = 99.0
#: Read-latency samples required before the p99 estimate replaces the
#: initial delay, and the window they are drawn from.
HEDGE_MIN_SAMPLES = 16
HEDGE_WINDOW = 128
#: EWMA smoothing for heartbeat round-trip latency scoring.
FN_HEALTH_EWMA_ALPHA = 0.2
#: Smoothed heartbeat RTT above this marks an invoker *suspect*: the
#: healthy UD ping round trip is ~10 us, a gray (slow-NIC) invoker sits
#: 1-2 orders of magnitude higher while still answering heartbeats.
FN_HEALTH_SUSPECT_LATENCY = 100.0 * US
#: Suspicion increments per missed heartbeat / slow heartbeat, the decay
#: multiplier applied per healthy heartbeat, and the level at which the
#: invoker counts as suspect (queued requests re-route away from it).
FN_SUSPICION_MISS_STEP = 0.5
FN_SUSPICION_LAT_STEP = 0.25
FN_SUSPICION_DECAY = 0.5
FN_SUSPECT_THRESHOLD = 0.5
#: Placement weight: a fully-suspect invoker looks this many in-flight
#: requests more loaded than its counter says (suspicion * penalty).
FN_SUSPICION_LOAD_PENALTY = 8.0

# --- Seed lineage fault tolerance (repro.lineage) ----------------------------
#: Seed replicas per function when ``REPRO_SEED_REPLICAS`` is unset.
#: 0 = replication off — the seed repo's fate-sharing behaviour, and the
#: setting under which the event sequence stays byte-identical.
LINEAGE_SEED_REPLICAS_DEFAULT = 0
#: Retry period of the LB's fence-delivery driver toward one machine.
LINEAGE_FENCE_RETRY_PERIOD = 1.0 * SEC
#: Fence-delivery attempts per (machine, lineage) before the driver
#: parks; re-armed when the health monitor re-admits the invoker, so a
#: revived host still learns the fence without an unbounded loop.
LINEAGE_FENCE_MAX_TRIES = 30
#: Owner re-routes one page fault may attempt before the error stands —
#: bounds ping-pong between two gray members of the same lineage.
LINEAGE_RESCUE_MAX_FAILOVERS = 4

# --- Fabric topology & congestion (repro.fabricnet) --------------------------
#: Host NIC line rate on the shared fabric, bytes/us.  Matches the
#: point-to-point RDMA_BANDWIDTH so the uncongested single-flow cost is
#: identical to the flat model's.
FABRIC_HOST_BANDWIDTH = RDMA_BANDWIDTH
#: ToR uplink oversubscription ratio: aggregate host bandwidth in a rack
#: divided by the rack's spine-facing capacity (a classic 3:1 Clos).
FABRIC_OVERSUBSCRIPTION = 3.0
#: One-way propagation + switching latency per fabric hop.
FABRIC_HOP_LATENCY = 0.3 * US
#: ECN-style marking threshold: a link whose standing backlog meets this
#: marks passing flows (the DCQCN CNP trigger).
FABRIC_ECN_THRESHOLD_BYTES = 128 * KB
#: Hard per-link queue cap; arrivals beyond it tail-drop.  Sized so an
#: unchecked incast overruns it while a DCQCN-paced one never does.
FABRIC_MAX_QUEUE_BYTES = MB
#: DCQCN rate-reduction EWMA gain (the `g` of the alpha update); the
#: multiplicative cut itself is the canonical rate *= 1 - alpha/2.
#: The spec's g is per-CNP with per-packet marking; this model marks
#: per *transfer* (a ~32-packet doorbell batch), so g is scaled up to
#: keep alpha's rise per marked byte comparable.
FABRIC_DCQCN_G = 0.5
#: Additive-recovery step toward line rate per recovery period; slow
#: enough (~3 ms to line rate) that a marked flow cannot fully recover
#: inside one queue-drain epoch and re-overrun the link it just marked.
FABRIC_DCQCN_RECOVERY_STEP = FABRIC_HOST_BANDWIDTH / 64.0
#: Elapsed time granting one additive-recovery step to an idle-ok flow.
FABRIC_DCQCN_RECOVERY_PERIOD = 50.0 * US
#: Floor under per-flow pacing so a marked-to-death flow still drains.
#: Low enough that the sum over one incast's flows stays below even a
#: storm-degraded access link, or CC could never stabilize the queue.
FABRIC_MIN_FLOW_RATE = FABRIC_HOST_BANDWIDTH / 1024.0
#: Go-back-N retransmission penalty a tail-dropped transfer pays per
#: attempt (timeout detection + replay), and the bounded retry budget
#: before the transfer force-completes through the congested queue.
FABRIC_RETX_PENALTY = 2.0 * MS
FABRIC_MAX_RETX = 3
#: Standing backlog at which a host link counts as *hot* for the pager's
#: congestion-aware backpressure (defer range fetches, shed prefetch).
FABRIC_HOT_THRESHOLD_BYTES = 128 * KB
#: Capacity divisor a seed-NIC saturation storm applies to the victim's
#: host links for the duration of the storm window.
FABRIC_SATURATION_FACTOR = 8.0

# --- Connection control plane (repro.connplane) -------------------------------
#: Per-machine budget for *warm* (idle, pooled) RC queue pairs.  Sized in
#: bytes so the LRU evicts by the same currency the memory account charges
#: (``RCQP_FOOTPRINT_BYTES`` each): 64 warm QPs = 512 KB of NIC/driver
#: state per machine, Swift's "cache a working set, not the fleet" sizing.
CONNPLANE_POOL_BYTES = 64 * RCQP_FOOTPRINT_BYTES
#: Max RCQP creations coalesced behind one pass through the NIC's
#: serialized QP factory (one doorbell ring for the control verbs).
CONNPLANE_CREATE_BATCH = 8
#: Per-extra-QP cost inside one batched factory pass: the driver posts the
#: next create WQE on an already-rung doorbell instead of paying the full
#: 1/700 s verbs round trip again (Swift §4's batched control path).
CONNPLANE_QP_BATCH_LATENCY = RCQP_CREATE_LATENCY / 8.0
#: Fixed wire size of one advertisement record (fork meta + DCT handle +
#: generation + lease expiry), before the per-VMA rkeys are added.
CONNPLANE_ADVERT_BYTES = 64
#: CPU cost for an invoker to install or replace one advert in its cache.
CONNPLANE_ADVERT_APPLY_LATENCY = 0.3 * US
#: CPU cost of the child-side advert-cache lookup on the fork hit path
#: (a hash probe — what replaces the descriptor-query RPC round trip).
CONNPLANE_LOOKUP_LATENCY = 0.2 * US


def transfer_time(size_bytes, bandwidth):
    """Time (us) to move ``size_bytes`` at ``bandwidth`` bytes/us."""
    if size_bytes <= 0:
        return 0.0
    return size_bytes / bandwidth


def env_flag(name):
    """True when the on/off knob ``name`` is set to anything but off.

    Unset, blank, ``0``, ``off``, ``none``, ``no`` and ``false`` (any
    case, surrounding blanks ignored) are off; every other value is on.
    """
    raw = os.environ.get(name, "").strip().lower()
    return raw not in ("", "0", "off", "none", "no", "false")


def pages_of(size_bytes):
    """Number of 4 KB pages covering ``size_bytes``."""
    return (int(size_bytes) + PAGE_SIZE - 1) // PAGE_SIZE
