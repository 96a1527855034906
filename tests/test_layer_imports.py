"""Where each opt-in layer loads: when it is armed, never at import.

An unarmed run must not import any opt-in layer's implementation; each
``FnCluster.enable_*`` imports its own layer where it arms it; and the
five packages whose ``__init__`` resolves names on first access
(:func:`repro.lazy_exports`) still export every name of ``__all__``.

Each check that depends on what is imported runs in a fresh
interpreter: the tier-1 process imports every module
(``test_docstrings.py``), so ``sys.modules`` here proves nothing.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The implementation modules of the opt-in layers, none of which a run
#: that arms no layer may import.
OPT_IN_MODULES = (
    "repro.connplane.advert", "repro.connplane.plane",
    "repro.connplane.pool",
    "repro.fabricnet.topology", "repro.fabricnet.network",
    "repro.lineage.registry", "repro.lineage.runtime", "repro.lineage.wal",
    "repro.faults.injector", "repro.faults.schedule",
    "repro.resilience", "repro.resilience.breaker",
    "repro.resilience.budget", "repro.resilience.hedging",
    "repro.resilience.suspicion",
    "repro.trace.analysis", "repro.trace.export",
)

#: Per package: the names its ``__init__`` binds on import, which the
#: default path and perfbench's knob guard read.  Every other name of
#: ``__all__`` loads its submodule on first access.
EAGER = {
    "repro.connplane": {"default_connplane"},
    "repro.fabricnet": {"FABRIC_MODES", "default_fabric_mode"},
    "repro.faults": {"AdmissionShed", "DeadlineExceeded", "FaultError",
                     "InvocationLost", "LeaseExpired", "MachineCrashed",
                     "ParentUnreachable", "SeedUnavailable"},
    "repro.lineage": {"StaleGeneration", "default_seed_replicas"},
    "repro.trace": {"Span", "Tracer", "enabled_by_env", "maybe_install"},
}

#: Builds the default two-invoker rig, arms the layers ``ARM`` names and
#: runs one invocation per entry of ``INVOCATIONS``; prints the ``repro``
#: modules imported after ``import repro.fn`` and every outcome.
SCRIPT = textwrap.dedent("""
    import json, sys
    import repro.fn
    from repro.fn import FnCluster, MitosisPolicy
    from repro.workloads import tc0_profile
    at_import = sorted(m for m in sys.modules if m.startswith("repro"))
    fn = FnCluster(MitosisPolicy(), num_invokers=2, num_machines=5,
                   num_dfs_osds=2, seed=0)
    for arm, kwargs in ARM:
        getattr(fn, "enable_" + arm)(**kwargs)
    profile = tc0_profile()
    fn.env.run(fn.env.process(fn.register(profile)))
    outcomes = [fn.env.run(fn.env.process(fn.invoke(profile.name))).outcome
                for _ in range(INVOCATIONS)]
    fn.stop_fault_daemons()
    print(json.dumps({
        "at_import": at_import,
        "loaded": sorted(m for m in sys.modules if m.startswith("repro")),
        "outcomes": outcomes}))
""")


def _fresh(script):
    """Run ``script`` in a new interpreter on ``src`` with every
    ``REPRO_*`` knob unset; returns its last stdout line, parsed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _drive(arm=(), invocations=1):
    return _fresh("ARM = %r\nINVOCATIONS = %d\n%s"
                  % (list(arm), invocations, SCRIPT))


def test_unarmed_run_imports_no_opt_in_layer():
    """The perfbench ``spike_replay`` rig, unarmed: importing ``repro.fn``,
    building the cluster, provisioning TC0 and running invocations to
    completion loads none of :data:`OPT_IN_MODULES`."""
    result = _drive(invocations=3)
    assert result["outcomes"] == ["ok"] * 3
    loaded = [m for m in OPT_IN_MODULES if m in result["loaded"]]
    assert not loaded, "an unarmed run imported %s" % loaded


#: Per ``enable_*``: the layers armed in order (lineage is a fault-era
#: layer and needs the injector first) and a module the layer loads.
ARMINGS = {
    "faults": ([("faults", {})], "repro.faults.injector"),
    "fabric": ([("fabric", {"mode": "dcqcn"})], "repro.fabricnet.network"),
    "connplane": ([("connplane", {})], "repro.connplane.plane"),
    "resilience": ([("resilience", {})], "repro.resilience.budget"),
    "lineage": ([("faults", {}), ("lineage", {"replicas": 1})],
                "repro.lineage.runtime"),
}


@pytest.mark.parametrize("layer", sorted(ARMINGS))
def test_enable_imports_its_layer(layer):
    """Arming a layer on a fresh cluster, in a fresh interpreter, imports
    it and runs an invocation: a missing or circular import at arming
    time fails here, not in an experiment."""
    arm, module = ARMINGS[layer]
    result = _drive(arm)
    assert result["outcomes"] == ["ok"]
    assert module not in result["at_import"]
    assert module in result["loaded"]


LAZY_SCRIPT = textwrap.dedent("""
    import importlib, inspect, json
    out = {}
    for name in PACKAGES:
        package = importlib.import_module(name)
        bound = set(vars(package))
        homes = {}
        for export in package.__all__:
            value = getattr(package, export)
            home = (value.__module__ if inspect.isclass(value)
                    or inspect.isfunction(value) else name)
            same = getattr(importlib.import_module(home), export) is value
            homes[export] = home if same else None
        try:
            getattr(package, "NoSuchName")
            unknown = None
        except AttributeError as error:
            unknown = str(error)
        out[name] = {"eager": sorted(bound & set(package.__all__)),
                     "homes": homes, "unknown": unknown}
    print(json.dumps(out))
""")


@pytest.fixture(scope="module")
def resolved():
    """Every package's exports as a fresh interpreter resolves them."""
    return _fresh("PACKAGES = %r\n%s" % (sorted(EAGER), LAZY_SCRIPT))


@pytest.mark.parametrize("package", sorted(EAGER))
def test_every_export_resolves_to_its_definition(resolved, package):
    """Each name of ``__all__`` resolves through the package to the object
    its defining module binds; the package binds only :data:`EAGER` on
    import; an unknown name raises ``AttributeError``."""
    result = resolved[package]
    module = importlib.import_module(package)
    assert result["eager"] == sorted(EAGER[package])
    for export, home in result["homes"].items():
        assert home == package or (home or "").startswith(package + "."), (
            export, home)
    assert sorted(result["homes"]) == sorted(module.__all__)
    assert result["unknown"] == (
        "module %r has no attribute 'NoSuchName'" % package)


@pytest.mark.parametrize("package", sorted(EAGER))
def test_no_export_is_named_like_a_submodule(package):
    """Importing a submodule binds its name on the package, which would
    shadow a lazily exported name equal to it."""
    module = importlib.import_module(package)
    submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
    assert not submodules & set(module.__all__)
    assert inspect.isfunction(module.__getattr__)
