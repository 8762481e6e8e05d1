"""Tests for the message-loss model."""

from __future__ import annotations

import pytest

from repro.core import Runtime, RuntimeConfig
from repro.dsl import TopologyBuilder
from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Engine, RoundContext
from repro.sim.network import Network
from repro.sim.rng import RandomStreams
from tests.gossip.helpers import GossipWorld


class TestExchangeOk:
    def _context(self, loss_rate, seed=1):
        network = Network()
        node = network.create_node()
        return RoundContext(
            node=node,
            network=network,
            transport=None,
            streams=RandomStreams(seed),
            round=0,
            layer="layer",
            loss_rate=loss_rate,
        )

    def test_zero_loss_always_ok(self):
        ctx = self._context(0.0)
        assert all(ctx.exchange_ok() for _ in range(100))

    def test_loss_rate_respected_statistically(self):
        ctx = self._context(0.3)
        drops = sum(1 for _ in range(2000) if not ctx.exchange_ok())
        assert 450 <= drops <= 750  # 600 expected

    def test_deterministic_per_seed(self):
        first = [self._context(0.5, seed=7).exchange_ok() for _ in range(20)]
        second = [self._context(0.5, seed=7).exchange_ok() for _ in range(20)]
        assert first == second

    def test_engine_validates_loss_rate(self):
        network = Network()
        with pytest.raises(SimulationError):
            Engine(network, loss_rate=1.0)
        with pytest.raises(SimulationError):
            Engine(network, loss_rate=-0.1)


class TestLossyGossip:
    def test_peer_sampling_still_mixes_under_loss(self):
        world = GossipWorld(30, seed=3)
        world.engine.loss_rate = 0.3
        world.run(12)
        # Views remain populated and the traffic volume is visibly reduced.
        sizes = [len(world.ps(i).view) for i in range(30)]
        assert min(sizes) >= world.params.view_size - 2

    def test_lost_rounds_send_no_messages(self):
        lossless = GossipWorld(20, seed=5)
        lossless.run(10)
        lossy = GossipWorld(20, seed=5)
        lossy.engine.loss_rate = 0.5
        lossy.run(10)
        assert (
            lossy.transport.total_messages("peer_sampling")
            < lossless.transport.total_messages("peer_sampling")
        )


class TestLossyRuntime:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(loss_rate=1.5)

    def test_full_runtime_converges_under_loss(self):
        builder = TopologyBuilder("Lossy")
        builder.component("ring", "ring", size=24).port("gate", "lowest_id")
        builder.component("cell", "clique", size=8).port("gate", "lowest_id")
        builder.link(("ring", "gate"), ("cell", "gate"))
        assembly = builder.nodes(32).build()
        config = RuntimeConfig(loss_rate=0.3)
        deployment = Runtime(assembly, config=config, seed=71).deploy()
        assert deployment.engine.loss_rate == 0.3
        report = deployment.run_until_converged(120)
        assert report.converged, report.rounds

    def test_loss_slows_convergence(self):
        builder = TopologyBuilder("Slow")
        builder.component("ring", "ring", size=32)
        assembly = builder.nodes(32).build()
        fast = Runtime(assembly, seed=72).deploy()
        report_fast = fast.run_until_converged(120)
        slow = Runtime(
            assembly, config=RuntimeConfig(loss_rate=0.5), seed=72
        ).deploy()
        report_slow = slow.run_until_converged(120)
        assert report_fast.converged and report_slow.converged
        assert report_slow.slowest >= report_fast.slowest
