"""A shard worker that stops answering fails the run; it never hangs it."""

from __future__ import annotations

import time

import pytest

from repro.errors import SimulationError
from repro.runtime.api import RunnerConfig
from repro.scale import engine as scale_engine
from repro.scale.engine import ShardedEngine, ShardState


def test_a_silent_worker_raises_at_the_barrier_and_close_returns(monkeypatch):
    real_absorb = ShardState.absorb

    def stalled_absorb(self, layer, replies):
        if min(self.nodes) > 0:  # every shard but the first goes silent
            time.sleep(600)
        real_absorb(self, layer, replies)

    # The pool forks after this patch, so its workers inherit it.
    monkeypatch.setattr(ShardState, "absorb", stalled_absorb)
    engine = ShardedEngine(
        RunnerConfig(
            kind="sharded", shape="ring", n_nodes=16, n_shards=2, mode="mp"
        )
    )
    try:
        if engine.mode_used != "mp":
            pytest.skip("process pool unavailable in this environment")
        monkeypatch.setattr(scale_engine, "BARRIER_TIMEOUT_S", 1.0)
        start = time.monotonic()
        with pytest.raises(SimulationError, match=r"shard worker 1 .*'absorb'"):
            engine.run_round()
        assert time.monotonic() - start < 10
    finally:
        start = time.monotonic()
        engine.close()
        assert time.monotonic() - start < 10
