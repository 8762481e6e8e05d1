"""A shard worker that stops answering, dies or raises fails the run with a
:class:`SimulationError` naming its shard; it never hangs it."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.errors import SimulationError
from repro.runtime.api import RunnerConfig
from repro.scale import engine as scale_engine
from repro.scale.engine import ShardedEngine, ShardState


def two_workers() -> ShardedEngine:
    engine = ShardedEngine(
        RunnerConfig(
            kind="sharded", shape="ring", n_nodes=16, n_shards=2, mode="mp"
        )
    )
    if engine.mode_used != "mp":
        pytest.skip("worker processes unavailable in this environment")
    return engine


def closes_promptly(engine: ShardedEngine) -> None:
    start = time.monotonic()
    engine.close()
    assert time.monotonic() - start < 10


def test_a_silent_worker_raises_at_the_barrier_and_close_returns(monkeypatch):
    real_absorb = ShardState.absorb

    def stalled_absorb(self, layer, replies, following):
        if min(self.nodes) > 0:  # every shard but the first goes silent
            time.sleep(600)
        return real_absorb(self, layer, replies, following)

    monkeypatch.setattr(ShardState, "absorb", stalled_absorb)  # before the fork
    engine = two_workers()
    try:
        monkeypatch.setattr(scale_engine, "BARRIER_TIMEOUT_S", 1.0)
        start = time.monotonic()
        with pytest.raises(SimulationError, match=r"shard worker 1 .*'absorb'"):
            engine.run_round()
        assert time.monotonic() - start < 10
    finally:
        closes_promptly(engine)


def test_a_killed_worker_raises_simulation_error():
    engine = two_workers()
    try:
        engine.run_round()
        worker = engine._shards._processes[1]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(10)
        assert not worker.is_alive()
        with pytest.raises(
            SimulationError, match=r"shard worker 1 died before 'request' \(exit code -9\)"
        ):
            engine.run_round()
    finally:
        closes_promptly(engine)


def test_a_worker_killed_mid_phase_raises_simulation_error(monkeypatch):
    real_absorb = ShardState.absorb

    def dying_absorb(self, layer, replies, following):
        if min(self.nodes) > 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_absorb(self, layer, replies, following)

    monkeypatch.setattr(ShardState, "absorb", dying_absorb)  # before the fork
    engine = two_workers()
    try:
        with pytest.raises(
            SimulationError, match=r"shard worker 1 died during 'absorb' \(exit code -9\)"
        ):
            engine.run_round()
    finally:
        closes_promptly(engine)


def test_a_worker_exception_raises_simulation_error(monkeypatch):
    real_respond = ShardState.respond

    def failing_respond(self, layer, incoming):
        if min(self.nodes) > 0:
            raise ValueError("boom")
        return real_respond(self, layer, incoming)

    monkeypatch.setattr(ShardState, "respond", failing_respond)  # before the fork
    engine = two_workers()
    try:
        with pytest.raises(
            SimulationError, match=r"shard worker 1 failed on 'respond': ValueError\('boom'\)"
        ):
            engine.run_round()
    finally:
        closes_promptly(engine)


def test_a_worker_dead_at_start_up_raises_simulation_error(monkeypatch):
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        pytest.skip("no fork start method on this platform")
    parent = os.getpid()
    real_init = ShardState.__init__

    def dying_init(self, config, shard_index):
        if shard_index == 1 and os.getpid() != parent:
            os._exit(3)
        real_init(self, config, shard_index)

    monkeypatch.setattr(ShardState, "__init__", dying_init)  # before the fork
    with pytest.raises(
        SimulationError, match=r"shard worker 1 died during 'start' \(exit code 3\)"
    ):
        two_workers()


def test_a_worker_that_cannot_be_forked_raises_simulation_error(monkeypatch):
    try:
        fork = multiprocessing.get_context("fork")
    except ValueError:
        pytest.skip("no fork start method on this platform")

    def failing_start(self):
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(fork.Process, "start", failing_start)
    with pytest.raises(SimulationError, match=r"shard worker 0 could not start: .*unavailable"):
        two_workers()


def test_a_round_is_five_steps_and_carries_the_verdict(monkeypatch):
    sent = []
    real_step = scale_engine._ProcessShards.step

    def spy(self, command, payloads):
        sent.append(command)
        return real_step(self, command, payloads)

    monkeypatch.setattr(scale_engine._ProcessShards, "step", spy)
    fresh = two_workers()
    try:
        assert sent == ["verdict"]  # read once, at start-up
        assert fresh.converged() is False  # a fresh ring-16 is not converged
        assert sent == ["verdict"]
    finally:
        closes_promptly(fresh)
    engine = two_workers()
    try:
        for _ in range(3):
            sent.clear()
            engine.run_round()
            assert sent == ["request", "respond", "absorb", "respond", "absorb"]
            sent.clear()
            engine.converged()
            assert sent == []
    finally:
        closes_promptly(engine)
