"""make_runner: one factory, three kinds, one class per engine."""

from __future__ import annotations

from repro.runtime.api import Runner, RunnerConfig, make_runner
from repro.runtime.loopback import LoopbackTransport
from repro.runtime.net import NetRunner
from repro.scale.engine import ShardedEngine
from repro.sim.engine import Engine
from repro.sim.transport import Transport


class TestFactory:
    def test_round_kind(self):
        runner = make_runner(RunnerConfig(kind="round", n_nodes=8))
        assert isinstance(runner, Engine)
        assert isinstance(runner, Runner)
        assert runner.deployment is not None
        assert len(runner.deployment.rank_of) == 8

    def test_round_runs_and_counts(self):
        runner = make_runner(RunnerConfig(kind="round", n_nodes=8, shape="ring"))
        executed = runner.run(5)
        assert executed == 5 and runner.round == 5
        runner.close()  # idempotent no-op
        runner.close()

    def test_round_with_explicit_network_skips_deployment(self):
        donor = make_runner(RunnerConfig(kind="round", n_nodes=4)).deployment
        runner = make_runner(
            RunnerConfig(kind="round", n_nodes=4),
            network=donor.network,
            transport=donor.transport,
            streams=donor.streams,
        )
        assert runner.deployment is None
        assert runner.network is donor.network

    def test_loopback_kind_wraps_transport(self):
        """A loopback run is the round kind over the decorator."""
        wired = LoopbackTransport(Transport())
        runner = make_runner(RunnerConfig(kind="round", n_nodes=8), transport=wired)
        assert isinstance(runner, Engine)
        assert runner.transport is wired is runner.deployment.transport

    def test_loopback_wraps_a_supplied_plain_transport(self):
        inner = Transport()
        donor = make_runner(RunnerConfig(kind="round", n_nodes=4)).deployment
        runner = make_runner(
            RunnerConfig(kind="round", n_nodes=4),
            network=donor.network,
            transport=LoopbackTransport(inner),
            streams=donor.streams,
        )
        assert isinstance(runner.transport, LoopbackTransport)
        assert runner.transport.inner is inner

    def test_sharded_kind(self):
        runner = make_runner(
            RunnerConfig(kind="sharded", n_nodes=32, n_shards=4, shape="ring")
        )
        assert isinstance(runner, ShardedEngine)
        assert isinstance(runner, Runner)
        executed = runner.run(30)
        assert 0 < executed <= 30
        assert runner.converged()
        runner.close()

    def test_net_kind_builds_without_starting(self):
        runner = make_runner(
            RunnerConfig(kind="net", n_nodes=3, node_index=0, round_interval=0.05)
        )
        assert isinstance(runner, NetRunner)
        assert isinstance(runner, Runner)
        runner.close()  # never started: close must still be safe
        runner.close()

