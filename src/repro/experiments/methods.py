"""The comparing targets of §6, as named policy factories."""

from ..fn import CriuPolicy, FnCachingPolicy, IdealCachePolicy, MitosisPolicy


def policy_for(method, cache_instances=16, fn_keepalive=None):
    """Build the start policy for a §6 comparing target by name."""
    if method == "mitosis":
        return MitosisPolicy()
    if method == "criu-tmpfs":
        return CriuPolicy(mode="tmpfs")
    if method == "criu-remote":
        return CriuPolicy(mode="dfs")
    if method == "cache-ideal":
        return IdealCachePolicy(instances_per_invoker=cache_instances)
    if method == "fn-cache":
        if fn_keepalive is not None:
            return FnCachingPolicy(keepalive=fn_keepalive)
        return FnCachingPolicy()
    raise ValueError("unknown method %r" % (method,))


DEFAULT_METHODS = ("mitosis", "criu-tmpfs", "criu-remote", "cache-ideal")
