"""The ``REPRO_SHARDS`` knob's parse, kept for perfbench's knob guard."""

import os
import subprocess
import sys

import pytest

from repro.shard import SHARDS_ENV_VAR, default_shards

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestForkRigPartition:
    """The knob the removed sharded fork rig read."""

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


def test_perfbench_refuses_repro_shards():
    # perfbench refuses before it builds a cluster: one interpreter start.
    env = dict(os.environ, **{SHARDS_ENV_VAR: "2"})
    done = subprocess.run(
        [sys.executable, os.path.join(REPO, "perfbench", "run.py"),
         "--workload", "fork_burst", "--smoke"],
        cwd=REPO, env=env, capture_output=True, text=True, check=False)
    assert done.returncode == 2
    assert SHARDS_ENV_VAR in done.stderr
