"""The sharded fork rig: partitioned replicas and the differential.

The exactness test is the rig's determinism contract: the sharded fork
rig must reproduce the single-core rig's per-invocation outcomes
exactly (with the residual timing skew bounded, not assumed zero), and
``audit_shard`` must catch a merged result that breaks the replica
contract.
"""

import pytest

from repro import sanitizers
from repro.shard import default_shards, differential, owner_of
from repro.shard.fork_rig import SHARDS_ENV_VAR


def _merged_result():
    """A clean two-shard merged result over two invocations."""
    return {
        "num_forks": 2,
        "records": [(0,), (1,)],
        "shards": [
            {"shard": 0, "pick_digest": "d", "picks": 2,
             "owned_invokers": [0]},
            {"shard": 1, "pick_digest": "d", "picks": 2,
             "owned_invokers": [1]},
        ],
    }


class TestShardAudit:
    def test_check_shard_raises(self):
        sanitizers.check_shard(_merged_result())  # clean: no raise
        short = _merged_result()
        short["shards"][1]["picks"] = 1
        with pytest.raises(sanitizers.SanitizerViolation, match="picks"):
            sanitizers.check_shard(short)
        lost = _merged_result()
        lost["records"] = [(0,)]
        with pytest.raises(sanitizers.SanitizerViolation,
                           match="partition"):
            sanitizers.check_shard(lost)


class TestForkRigPartition:
    def test_owner_of_balances_round_robin(self):
        owners = [owner_of(i, 3) for i in range(8)]
        assert owners == [0, 1, 2, 0, 1, 2, 0, 1]

    def test_default_shards_parsing(self, monkeypatch):
        monkeypatch.delenv(SHARDS_ENV_VAR, raising=False)
        assert default_shards() is None
        monkeypatch.setenv(SHARDS_ENV_VAR, "0")
        assert default_shards() is None
        monkeypatch.setenv(SHARDS_ENV_VAR, "4")
        assert default_shards() == 4
        monkeypatch.setenv(SHARDS_ENV_VAR, "-2")
        with pytest.raises(ValueError):
            default_shards()

    def test_differential_exact_outcomes_small_burst(self):
        single, sharded, diff = differential(120, workers=2)
        assert diff["outcomes_match"]
        assert diff["invocations"] == 120
        assert diff["max_started_skew_rel"] < 0.02
        assert diff["max_finished_skew_rel"] < 0.02
        assert diff["makespan_skew_rel"] < 0.02
        assert sharded["events"] > 0
        assert len(sharded["records"]) == len(single["records"]) == 120
        assert sanitizers.audit_shard(sharded) == []

    def test_audit_flags_tampered_rig_result(self):
        _single, sharded, _diff = differential(40, workers=2)
        sharded["shards"][1]["pick_digest"] = "0" * 64
        violations = sanitizers.audit_shard(sharded)
        assert any("digest" in v for v in violations)
        sharded["shards"][1]["owned_invokers"] = (
            sharded["shards"][0]["owned_invokers"])
        assert any("ownership" in v
                   for v in sanitizers.audit_shard(sharded))
