"""Tests for seed descriptor renewal (§5)."""

from repro.fn import FnCluster, MitosisPolicy
from repro.workloads import tc0_profile


def make_cluster():
    policy = MitosisPolicy()
    fn = FnCluster(policy, num_invokers=3, num_machines=6, num_dfs_osds=2,
                   seed=5)
    return fn, policy


def run(fn, gen):
    return fn.env.run(fn.env.process(gen))


class TestSeedRenewalLoop:
    """``MitosisPolicy.renew_seed``, which callers invoke explicitly."""

    def test_renewed_descriptor_reflects_new_parent_state(self):
        fn, policy = make_cluster()
        profile = tc0_profile()

        def body():
            yield from fn.register(profile)
            invoker, seed, _ = policy.seeds["TC0"]
            heap = seed.task.address_space.vmas[3]
            # The seed's state evolves after the initial prepare.
            yield from seed.kernel.write_page(seed.task, heap.start_vpn,
                                              "new-state")
            yield from policy.renew_seed(fn, "TC0")
            child = yield from fn.deployment.node(
                fn.invokers[1].machine).fork_resume(policy.seeds["TC0"][2])
            content = yield from child.kernel.touch(child.task,
                                                    heap.start_vpn)
            return content

        assert run(fn, body()) == "new-state"

    def test_stale_descriptor_still_serves_old_state(self):
        # Until renewal, children fork the checkpointed (shadow) state —
        # the §5 staleness that renewal bounds.
        fn, policy = make_cluster()
        profile = tc0_profile()

        def body():
            yield from fn.register(profile)
            invoker, seed, meta = policy.seeds["TC0"]
            heap = seed.task.address_space.vmas[3]
            yield from seed.kernel.write_page(seed.task, heap.start_vpn,
                                              "after-prepare")
            child = yield from fn.deployment.node(
                fn.invokers[1].machine).fork_resume(meta)
            content = yield from child.kernel.touch(child.task,
                                                    heap.start_vpn)
            return content

        content = run(fn, body())
        assert content != "after-prepare"
