"""The OpenWhisk controller and cluster assembly.

Activation path (vanilla): controller -> per-invoker topic -> the
invoker's worker loop -> warm container, else stem cell + ``/init``, else
fully cold.  With MITOSIS, the miss path becomes a remote fork from the
action's seed — skipping both container creation *and* ``/init``, since
the forked memory image is already specialized.
"""

from .. import params
from ..cluster import Cluster
from ..containers import ContainerRuntime, hello_world_image
from ..core import MitosisDeployment
from ..kernel import Kernel
from ..rdma import RdmaFabric, RpcRuntime
from ..sim import Environment, SeededStreams
from ..workloads import execute
from .actions import (
    Activation,
    Action,
    BUS_PUBLISH_LATENCY,
    CONTROLLER_OVERHEAD,
    DEFAULT_INIT_LATENCY,
)
from .invoker import OwInvoker


class OpenWhiskCluster:
    """An OpenWhisk-style deployment, optionally MITOSIS-accelerated."""

    def __init__(self, mode="vanilla", num_invokers=3, num_machines=6,
                 seed=0, invoker_concurrency=params.FN_INVOKER_CONCURRENCY,
                 stemcells=2):
        if mode not in ("vanilla", "mitosis"):
            raise ValueError("mode must be 'vanilla' or 'mitosis'")
        self.mode = mode
        self.env = Environment()
        self.streams = SeededStreams(seed)
        self.cluster = Cluster(self.env, num_machines=num_machines)
        self.fabric = RdmaFabric(self.env, self.cluster)
        self.rpc = RpcRuntime(self.env, self.fabric)
        self.kernels = [Kernel(self.env, m) for m in self.cluster]
        self.runtimes = [ContainerRuntime(self.env, k) for k in self.kernels]
        generic_image = hello_world_image()

        invoker_machines, _ = self.cluster.split_roles(num_invokers)
        self.invokers = [
            OwInvoker(self.env, self.runtimes[m.machine_id], index,
                      generic_image, concurrency=invoker_concurrency,
                      stemcells=stemcells)
            for index, m in enumerate(invoker_machines)
        ]
        self.deployment = MitosisDeployment(
            self.env, self.cluster, self.fabric, self.rpc,
            [inv.runtime for inv in self.invokers])

        self.actions = {}
        #: action name -> (seed invoker, seed container, fork meta).
        self.seeds = {}
        self.activations = []
        for invoker in self.invokers:
            for _ in range(invoker.concurrency):
                self.env.process(self._worker_loop(invoker))

    # --- Registration ---------------------------------------------------------
    def register(self, profile):
        """Register an action; in MITOSIS mode also plant its seed.

        Generator returning the :class:`Action`.
        """
        action = Action(profile)
        if action.name in self.actions:
            raise ValueError("action %r already registered" % action.name)
        self.actions[action.name] = action
        if self.mode == "mitosis":
            invoker = min(self.invokers,
                          key=lambda i: i.machine.memory.used)
            seed = yield from invoker.runtime.cold_start(action.image)
            yield self.env.timeout(DEFAULT_INIT_LATENCY)  # specialize seed
            invoker.live_containers.add(seed)
            node = self.deployment.node(invoker.machine)
            meta = yield from node.fork_prepare(seed)
            self.seeds[action.name] = (invoker, seed, meta)
        else:
            yield self.env.timeout(0)
        return action

    # --- Activation path -----------------------------------------------------
    def invoke(self, name):
        """One activation end to end.  Generator -> Activation."""
        if name not in self.actions:
            raise KeyError("unknown action %r" % (name,))
        activation = Activation(name, self.env.now)
        yield self.env.timeout(CONTROLLER_OVERHEAD)
        invoker = self._home_invoker(name)
        activation.invoker_index = invoker.index
        yield self.env.timeout(BUS_PUBLISH_LATENCY)
        done = self.env.event()
        invoker.queue.put((activation, done))
        yield done
        self.activations.append(activation)
        return activation

    def submit(self, name):
        """Fire-and-forget activation; returns the Process event."""
        return self.env.process(self.invoke(name))

    def _home_invoker(self, action_name):
        """OpenWhisk hashes actions to a home invoker, overflowing to the
        least-loaded one when the home queue is deep."""
        home = self.invokers[hash(action_name) % len(self.invokers)]
        if home.outstanding < 2 * home.concurrency:
            return home
        return min(self.invokers, key=lambda i: i.outstanding)

    # --- Invoker worker loop -----------------------------------------------------
    def _worker_loop(self, invoker):
        while True:
            activation, done = yield invoker.queue.get()
            invoker.outstanding += 1
            try:
                yield from self._run_activation(invoker, activation)
                done.succeed(activation)
            except BaseException as exc:  # surface, don't hang the caller
                done.fail(exc)
            finally:
                invoker.outstanding -= 1

    def _run_activation(self, invoker, activation):
        action = self.actions[activation.action_name]
        container = invoker.warm_take(action.name)
        if container is not None:
            activation.start_kind = "warm"
        elif self.mode == "mitosis":
            _, _, meta = self.seeds[action.name]
            node = self.deployment.node(invoker.machine)
            container = yield from node.fork_resume(meta)
            invoker.live_containers.add(container)
            activation.start_kind = "mitosis"
        else:
            generic, prewarmed = yield from invoker.stemcells.take()
            invoker.live_containers.add(generic)
            yield self.env.timeout(DEFAULT_INIT_LATENCY)  # /init
            container = generic
            activation.start_kind = ("prewarm-init" if prewarmed
                                     else "cold-init")
        activation.started_at = self.env.now
        yield from execute(self.env, container, action.profile)
        activation.finished_at = self.env.now
        invoker.warm_put(action.name, container)
