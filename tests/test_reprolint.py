"""Tests for the reprolint static-analysis pass.

The fixture tree under ``tests/reprolint_fixtures`` mirrors the repo
layout (``src/repro/...``) so the rules' path prefixes and exemptions
apply exactly as they do on the real tree.  Per rule it holds positive,
negative, pragma-suppressed and (via a generated baseline) baseline-
suppressed cases.  The meta-test at the bottom holds the real tree to
zero non-baselined findings.
"""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO, "tests", "reprolint_fixtures")
if REPO not in sys.path:
    sys.path.insert(0, REPO)

from tools.reprolint import engine  # noqa: E402
from tools import reprolint  # noqa: E402,F401  (registers the rules)

ALL_RULES = (
    "no-wallclock-or-global-random",
    "rpc-deadline",
    "no-bare-except",
    "no-raw-pte-mutation",
    "acquire-release-balance",
    "event-handler-hygiene",
    "hot-path-alloc",
    "unclosed-span",
    "stale-generation-compare",
    "raw-link-capacity",
    "qp-create-outside-connplane",
    "snapshot-read-only",
)


def run_fixtures(rule_names=None, baseline_path=None):
    return engine.run(repo_root=FIXTURES, scan_paths=("src/repro",),
                      rule_names=rule_names, baseline_path=baseline_path)


@pytest.fixture(scope="module")
def report():
    return run_fixtures()


def by_rule(findings, name):
    return [f for f in findings if f.rule == name]


class TestRegistry:
    def test_all_rules_registered(self):
        for name in ALL_RULES:
            assert name in engine.REGISTRY
            assert engine.REGISTRY[name].severity == "error"
            assert engine.REGISTRY[name].doc

    def test_unknown_rule_rejected(self):
        with pytest.raises(KeyError):
            engine.run(rule_names=("no-such-rule",))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            engine.rule("no-bare-except")(lambda f: ())


class TestRulePositives:
    """Every planted violation is found; nothing clean is flagged."""

    def test_wallclock(self, report):
        found = by_rule(report.findings, "no-wallclock-or-global-random")
        assert len(found) == 4  # from-import, random.random, time.time, now
        assert all(f.path == "src/repro/wallclock_bad.py" for f in found)

    def test_rpc_deadline(self, report):
        found = by_rule(report.findings, "rpc-deadline")
        # rpc_bad.py: missing deadline; hedge_bad.py: bare-literal
        # deadline, breaker cooldown, and hedge delay.
        assert sorted(f.path for f in found) == [
            "src/repro/hedge_bad.py",
            "src/repro/hedge_bad.py",
            "src/repro/hedge_bad.py",
            "src/repro/rpc_bad.py",
        ]
        assert sum("bare literal" in f.message for f in found) == 3

    def test_bare_except(self, report):
        found = by_rule(report.findings, "no-bare-except")
        assert [f.path for f in found] == ["src/repro/bare_except_bad.py"]

    def test_raw_pte_mutation(self, report):
        found = by_rule(report.findings, "no-raw-pte-mutation")
        assert len(found) == 3  # pte.frame, pte.present, frame.refcount
        assert all(f.path == "src/repro/pte_bad.py" for f in found)

    def test_acquire_release(self, report):
        found = by_rule(report.findings, "acquire-release-balance")
        messages = sorted(f.message for f in found)
        assert len(found) == 2
        assert "no matching" in messages[1]
        assert "released outside" in messages[0]

    def test_event_handler(self, report):
        found = by_rule(report.findings, "event-handler-hygiene")
        assert len(found) == 2  # callback re-entry + library env.run()
        assert any("event callback" in f.message for f in found)
        assert any("library code" in f.message for f in found)

    def test_hot_path_alloc(self, report):
        found = by_rule(report.findings, "hot-path-alloc")
        # Only the marked spawner: the batched function and the unmarked
        # demand entry point stay clean.
        assert [f.path for f in found] == ["src/repro/hotpath_bad.py"]
        assert "fetch_range_bad" in found[0].message

    def test_stale_generation_compare(self, report):
        found = by_rule(report.findings, "stale-generation-compare")
        # Eq on an attribute, NotEq on a subscript key, and the lease
        # path with no ordering; the `<`-fenced, `genre` and `release`
        # cases stay clean.
        assert len(found) == 3
        assert all(f.path == "src/repro/generation_bad.py" for f in found)
        assert sum("fencing tokens are ordered" in f.message
                   for f in found) == 2
        assert sum("never orders" in f.message for f in found) == 1

    def test_raw_link_capacity(self, report):
        found = by_rule(report.findings, "raw-link-capacity")
        # Module constant, literal arithmetic, parameter default, call
        # keyword, and attribute binding; the params-derived, zero
        # (neutral-element), Resource-slot and drop-rate cases stay
        # clean.
        assert all(f.path == "src/repro/fabric_bad.py" for f in found)
        assert len(found) == 5
        messages = sorted(f.message for f in found)
        assert sum("assigned to" in m for m in messages) == 3
        assert sum("passed as" in m for m in messages) == 1
        assert sum("default for" in m for m in messages) == 1

    def test_unclosed_span(self, report):
        found = by_rule(report.findings, "unclosed-span")
        # The discarded expression and the leaked binding; the with /
        # finally / factory / handoff patterns stay clean.
        assert len(found) == 2
        assert all(f.path == "src/repro/span_bad.py" for f in found)
        messages = sorted(f.message for f in found)
        assert "discarded" in messages[0]
        assert "never" in messages[1]

    def test_qp_create_outside_connplane(self, report):
        found = by_rule(report.findings, "qp-create-outside-connplane")
        # The direct RcQp and DcTarget constructions; the suppressed case
        # and the factory/lease paths stay clean, as does rdma/ (exempt:
        # it owns the constructors).
        assert all(f.path == "src/repro/qpcreate_bad.py" for f in found)
        assert len(found) == 2
        types = sorted(f.message.split("`")[1] for f in found)
        assert types == ["DcTarget(...)", "RcQp(...)"]
        assert all("NIC" in f.message for f in found)

    def test_snapshot_read_only(self, report):
        found = by_rule(report.findings, "snapshot-read-only")
        # Item assignment, item deletion and the five mutating calls;
        # reads, a freshly built local map and other attributes stay
        # clean.
        assert all(f.path == "src/repro/snapshot_bad.py" for f in found)
        assert len(found) == 7
        messages = [f.message for f in found]
        assert sum("item assignment" in m for m in messages) == 1
        assert sum("item deletion" in m for m in messages) == 1
        assert sorted(m.split("`")[1] for m in messages
                      if m.startswith("`")) == [
            ".pte_snapshots.clear()", ".pte_snapshots.setdefault()",
            ".pte_snapshots.update()", ".snapshot.pop()",
            ".snapshot.popitem()"]


class TestSuppression:
    def test_one_pragma_suppression_per_rule(self, report):
        suppressed = {f.rule for f in report.suppressed}
        assert suppressed == set(ALL_RULES)
        # One pragma case per rule, plus hedge_bad.py's suppressed
        # bare-literal case (rpc-deadline has two suppression fixtures).
        assert len(report.suppressed) == len(ALL_RULES) + 1

    def test_exempt_paths_never_flagged(self, report):
        flagged = {f.path for f in report.findings + report.suppressed}
        assert "src/repro/sim/rng.py" not in flagged
        assert "src/repro/kernel/page_table.py" not in flagged
        assert "src/repro/experiments/driver.py" not in flagged

    def test_baseline_roundtrip(self, report, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        engine.save_baseline(baseline, report.findings)
        rerun = run_fixtures(baseline_path=baseline)
        assert rerun.findings == []
        assert rerun.exit_code == 0
        assert len(rerun.baselined) == len(report.findings)

    def test_baseline_keys_are_line_insensitive(self, report):
        finding = report.findings[0]
        moved = engine.Finding(finding.rule, finding.severity, finding.path,
                               finding.line + 40, finding.message)
        assert moved.key() == finding.key()

    def test_multi_rule_pragma_suppresses_both(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "multi.py").write_text(
            "import time\n"
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except: return time.time()  "
            "# reprolint: disable=no-bare-except,"
            "no-wallclock-or-global-random\n")
        report = engine.run(
            repo_root=str(tmp_path), scan_paths=("src/repro",),
            rule_names=("no-bare-except", "no-wallclock-or-global-random"),
            baseline_path=None)
        assert report.findings == []
        assert sorted(f.rule for f in report.suppressed) == [
            "no-bare-except", "no-wallclock-or-global-random"]

    def test_count_aware_baseline_pins_duplicates(self, tmp_path):
        # Three identical violations share one line-insensitive key; a
        # baseline built from two of them must keep pinning exactly two
        # and report the third (the old v1 format collapsed all three).
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "dupes.py").write_text(
            "import time\n"
            "def f():\n"
            "    a = time.time()\n"
            "    b = time.time()\n"
            "    c = time.time()\n")
        kwargs = dict(repo_root=str(tmp_path), scan_paths=("src/repro",),
                      rule_names=("no-wallclock-or-global-random",))
        first = engine.run(baseline_path=None, **kwargs)
        assert len(first.findings) == 3
        assert len({f.key() for f in first.findings}) == 1
        baseline = str(tmp_path / "baseline.json")
        engine.save_baseline(baseline, first.findings[:2])
        assert engine.load_baseline(baseline) == {
            first.findings[0].key(): 2}
        second = engine.run(baseline_path=baseline, **kwargs)
        assert len(second.baselined) == 2
        assert len(second.findings) == 1

    def test_v1_baseline_entries_read_as_count_one(self, tmp_path):
        baseline = tmp_path / "v1.json"
        baseline.write_text(json.dumps({"version": 1, "findings": ["k"]}))
        assert engine.load_baseline(str(baseline)) == {"k": 1}

    def test_update_baseline_is_a_fixed_point(self, tmp_path):
        # --update-baseline writes findings *plus* already-baselined
        # entries, so updating twice is byte-stable and never bleeds
        # grandfathered debt (the CLI does findings + baselined too).
        baseline = str(tmp_path / "b.json")
        first = run_fixtures()
        engine.save_baseline(baseline, first.findings + first.baselined)
        with open(baseline) as handle:
            saved_once = handle.read()
        second = run_fixtures(baseline_path=baseline)
        assert second.findings == []
        assert len(second.baselined) == len(first.findings)
        engine.save_baseline(baseline, second.findings + second.baselined)
        with open(baseline) as handle:
            assert handle.read() == saved_once


class TestReportFormats:
    def test_exit_code_and_text_footer(self, report):
        assert report.exit_code == 1
        footer = report.to_text().splitlines()[-1]
        assert footer.startswith("reprolint:")
        assert "%d finding(s)" % len(report.findings) in footer

    def test_json_payload(self, report):
        payload = json.loads(report.to_json())
        assert payload["errors"] == len(report.findings)
        assert payload["suppressed"] == len(report.suppressed)
        assert sorted(payload["rules"]) == sorted(ALL_RULES)


class TestSeverityFilter:
    def test_min_severity_drops_warning_rules(self):
        engine.rule("probe-warning", severity="warning",
                    paths=("src/repro",))(lambda f: ())
        try:
            errors_only = run_fixtures(
                rule_names=("probe-warning", "no-bare-except"))
            assert "probe-warning" in errors_only.rules_run
            filtered = engine.run(
                repo_root=FIXTURES, scan_paths=("src/repro",),
                rule_names=("probe-warning", "no-bare-except"),
                baseline_path=None, min_severity="error")
            assert filtered.rules_run == {"no-bare-except"}
        finally:
            engine.REGISTRY.pop("probe-warning", None)

    def test_warning_findings_do_not_fail_the_run(self):
        engine.rule("probe-warning", severity="warning",
                    paths=("src/repro",))(
            lambda f: [(1, "advisory only")])
        try:
            report = engine.run(
                repo_root=FIXTURES, scan_paths=("src/repro",),
                rule_names=("probe-warning",), baseline_path=None)
            assert report.findings and report.errors == []
            assert report.exit_code == 0
        finally:
            engine.REGISTRY.pop("probe-warning", None)

    def test_unknown_severity_rejected(self):
        with pytest.raises(KeyError):
            engine.run(min_severity="fatal")


class TestParallelScan:
    def test_jobs_output_identical_to_serial(self):
        serial = run_fixtures()
        parallel = engine.run(repo_root=FIXTURES, scan_paths=("src/repro",),
                              baseline_path=None, jobs=2)
        assert parallel.to_json() == serial.to_json()
        assert ([f.render() for f in parallel.suppressed]
                == [f.render() for f in serial.suppressed])


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "tools.reprolint"] + list(args),
            cwd=REPO, capture_output=True, text=True)

    def test_list_rules(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        for name in ALL_RULES:
            assert name in proc.stdout

    def test_unknown_rule_exits_2(self):
        proc = self.run_cli("--rule", "no-such-rule")
        assert proc.returncode == 2

    def test_json_run_over_real_tree(self):
        proc = self.run_cli("--format=json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["findings"] == []
        assert payload["errors"] == 0


class TestMetaRealTree:
    def test_real_tree_has_zero_nonbaselined_findings(self):
        report = engine.run()  # src/repro with the committed baseline
        assert report.findings == [], report.to_text()

    def test_committed_baseline_holds_known_debt_only(self):
        # The only grandfathered finding: the audit_lineage probe that
        # deliberately `!=`-compares its WAL-replay snapshot (replay
        # *equivalence*, not fencing).
        baseline = engine.load_baseline(engine.DEFAULT_BASELINE)
        assert isinstance(baseline, dict)
        (key,) = baseline
        assert key.startswith(
            "stale-generation-compare:src/repro/sanitizers/__init__.py:")
        assert baseline[key] == 1
