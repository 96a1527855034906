"""The perf gate itself: ``benchmarks/perf/compare.py`` on synthetic files.

No rig runs here.  Each check of the gate is seen to fail once and to
pass once, so a gate that can no longer fail shows up in tier-1.  The
harness's stepped timing loop runs on a toy loop.
"""

import copy
import importlib.util
import json
import os
import sys

import pytest

from repro.sim import Environment

PERF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                    "benchmarks", "perf")


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(PERF, filename))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = _load("perf_compare", "compare.py")


def _fork_rig(nominal_wall, batch_pages=0, **extra):
    rig = {"wall_s": 3.0 * nominal_wall, "cpu_s": 3.0 * nominal_wall,
           "nominal_wall_s": nominal_wall, "nominal_cpu_s": nominal_wall,
           "events": 1000, "forks": 10000,
           "batch_pages": batch_pages}
    rig.update(extra)
    return rig


def _baseline():
    return {
        "host": {"python": "3.11.7", "cpu_count": 2},
        "rigs": {
            "fork10k_unbatched": _fork_rig(16.0),
            "fork10k_tracing_off": _fork_rig(
                16.0, tracing_off_overhead_pct=0.5),
            "fork10k_batched": _fork_rig(
                10.0, batch_pages=8, wall_reduction_pct=40.0),
            "fork10k_rc": _fork_rig(4.0, batch_pages=8),
            "fork10k_connplane": _fork_rig(
                4.5, batch_pages=8, connplane_makespan_reduction_pct=80.0),
            "grayfaults_smoke": _fork_rig(5.0),
        },
    }


def _gate(tmp_path, edit):
    """Exit code of compare.main for a run made by ``edit``ing a copy of
    the baseline in place."""
    baseline = _baseline()
    current = copy.deepcopy(baseline)
    edit(current)
    paths = []
    for name, payload in (("baseline", baseline), ("current", current)):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    return compare.main([paths[1], "--baseline", paths[0]])


def _set(rig, field, value):
    def edit(run):
        run["rigs"][rig][field] = value
    return edit


def _scale_nominal(rig, factor):
    def edit(run):
        run["rigs"][rig]["nominal_wall_s"] *= factor
    return edit


def test_unchanged_run_passes(tmp_path, capsys):
    assert _gate(tmp_path, lambda run: None) == 0
    assert "perf gate: OK" in capsys.readouterr().out


@pytest.mark.parametrize("rig", ["fork10k_unbatched", "fork10k_batched",
                                 "grayfaults_smoke"])
@pytest.mark.parametrize("factor, code", [(1.16, 1), (1.14, 0)])
def test_per_rig_nominal_bound(tmp_path, capsys, rig, factor, code):
    assert _gate(tmp_path, _scale_nominal(rig, factor)) == code
    if code:
        assert "%s: nominal wall" % rig in capsys.readouterr().err


def test_raw_wall_is_not_the_per_rig_basis(tmp_path):
    # A slow host moves raw seconds; only nominal ones are gated.
    assert _gate(tmp_path, _set("fork10k_rc", "wall_s", 100.0)) == 0


@pytest.mark.parametrize("rig, key, value", [
    ("fork10k_unbatched", "forks", 1000),
    ("fork10k_batched", "batch_pages", 4),
])
def test_refuses_other_rig_parameters(tmp_path, capsys, rig, key, value):
    assert _gate(tmp_path, _set(rig, key, value)) == 2
    err = capsys.readouterr().err
    assert "REFUSED: %s: %s=%s" % (rig, key, value) in err


@pytest.mark.parametrize("version, code", [("3.12.1", 2), ("3.11.9", 0)])
def test_refuses_another_python_minor(tmp_path, capsys, version, code):
    def edit(run):
        run["host"]["python"] = version
    assert _gate(tmp_path, edit) == code
    if code:
        assert "REFUSED: python 3.12.1" in capsys.readouterr().err


@pytest.mark.parametrize("rig, field, failing, passing", [
    ("fork10k_batched", "wall_reduction_pct", 24.0, 26.0),
    ("fork10k_tracing_off", "tracing_off_overhead_pct", 2.5, 1.5),
    ("fork10k_connplane", "connplane_makespan_reduction_pct", 14.0, 16.0),
])
def test_same_run_gates(tmp_path, rig, field, failing, passing):
    assert _gate(tmp_path, _set(rig, field, failing)) == 1
    assert _gate(tmp_path, _set(rig, field, passing)) == 0


def test_missing_rig_fails(tmp_path, capsys):
    def edit(run):
        del run["rigs"]["fork10k_rc"]
    assert _gate(tmp_path, edit) == 1
    assert "rig 'fork10k_rc' missing" in capsys.readouterr().err


def test_step_until_processes_what_run_until_does(monkeypatch):
    """``harness.step_until`` stops on the step that processes the
    process, as ``env.run(until=process)`` does, with a daemon still
    ticking; each batch is one timed slice."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # harness adds to it
    harness = _load("perf_harness", "harness.py")
    monkeypatch.setattr(harness, "STEP_BATCH", 7)

    def build():
        env = Environment()

        def daemon():
            while True:
                yield env.timeout(1.0)

        def work():
            for _ in range(30):
                yield env.timeout(0.7)
            return "done"

        env.process(daemon())
        return env, env.process(work())

    ran, process = build()
    ran.run(until=process)
    stepped, stepped_process = build()
    slices = harness.step_until(stepped, stepped_process)
    assert stepped_process.value == "done"
    assert (stepped.events_processed, stepped.now) == (
        ran.events_processed, ran.now)
    assert len(slices) == -(-ran.events_processed // 7)
