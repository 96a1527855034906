"""The benchmark's own tests, at smoke size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def bench(workload, seed=1, trace=0, env=None, cwd=ROOT, run=RUN):
    """Run one smoke-size benchmark process -> (returncode, stdout lines)."""
    done = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300, env=env)
    return done.returncode, done.stdout.splitlines()


def parsed(lines):
    """(report, result) of one run's output."""
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    return report, json.loads(lines[-1])


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def runs():
    """Two untraced runs and one traced run of each workload, seed 1."""
    out = {}
    for workload in ("fork_burst", "spike_replay", "state_chain"):
        for key, trace in (("a", 0), ("b", 0), ("traced", 1)):
            code, lines = bench(workload, trace=trace)
            assert code == 0, lines
            out[workload, key] = (lines, *parsed(lines))
    return out


def test_every_metric_is_printed_with_its_unit(spec, runs):
    for workload in ("fork_burst", "spike_replay", "state_chain"):
        for key, section in (("a", "end_to_end"), ("traced", "per_layer")):
            lines, _, result = runs[workload, key]
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: value["unit"]
                   for name, value in result["metrics"].items()}
            assert got == expected
            for name, unit in expected.items():
                assert any(line.startswith("metric ")
                           and line.split()[1] == name
                           and line.split()[-1] == unit for line in lines)


def test_workloads_match_the_spec(spec):
    assert [w["name"] for w in spec["workloads"]] == [
        "fork_burst", "spike_replay", "state_chain"]


def test_runs_pass_their_checks(runs):
    for (workload, key), (_, report, result) in runs.items():
        assert result["correct"] is True, (workload, key, report["checks"])
        assert result["failed"] == 0
        assert all(report["checks"].values())


def test_two_runs_give_identical_simulated_results(runs):
    for workload in ("fork_burst", "spike_replay", "state_chain"):
        _, report_a, result_a = runs[workload, "a"]
        _, report_b, result_b = runs[workload, "b"]
        assert report_a["digest"] == report_b["digest"]
        for name, value in result_a["metrics"].items():
            if name.startswith("sim_"):
                assert result_b["metrics"][name] == value


def test_traced_run_reproduces_untraced_digest(runs):
    for workload in ("fork_burst", "spike_replay", "state_chain"):
        _, untraced, _ = runs[workload, "a"]
        _, traced, result = runs[workload, "traced"]
        assert traced["traced_digest"] == traced["digest"]
        assert traced["digest"] == untraced["digest"]
        assert result["metrics"]["sim.events"]["value"] == (
            untraced["sim_events"])
        assert traced["sanitizer_violations"] == []


def test_layer_contrasts(runs):
    def layer(workload, name):
        return runs[workload, "traced"][2]["metrics"][name]["value"]

    assert layer("state_chain", "fn.dispatches") == 0
    assert layer("fork_burst", "core.fork_prepare.calls") == 0
    assert layer("spike_replay", "core.fork_prepare.calls") == 0
    assert layer("state_chain", "core.fork_prepare.calls") > 0
    assert (layer("state_chain", "core.pager.share_ratio")
            < layer("fork_burst", "core.pager.share_ratio"))


def test_seed_changes_spike_arrivals():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    import workloads
    first = workloads.make_inputs("spike_replay", 1, smoke=True)
    assert first == workloads.make_inputs("spike_replay", 1, smoke=True)
    assert first != workloads.make_inputs("spike_replay", 2, smoke=True)
    assert len(first) >= 100


def test_refuses_an_armed_layer():
    env = dict(os.environ, REPRO_CONNPLANE="1")
    code, lines = bench("fork_burst", env=env)
    assert code == 2
    assert lines == []


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, lines = bench("fork_burst", cwd=tmp_path,
                        run=str(tmp_path / "perfbench" / "run.py"))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
