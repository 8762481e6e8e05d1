"""Tests for the round scheduler."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.obs.instrument import Instrument
from repro.sim.controls import Control
from repro.sim.engine import Engine, RoundContext
from repro.sim.network import Network
from repro.sim.protocol import Protocol
from repro.sim.rng import RandomStreams


class CountingProtocol(Protocol):
    def __init__(self):
        self.steps = 0
        self.seen_layers = []

    def step(self, ctx: RoundContext):
        self.steps += 1
        self.seen_layers.append(ctx.layer)


def build(n=4, layers=("a", "b")):
    net = Network()
    protocols = []
    for node in net.create_nodes(n):
        per_node = {}
        for layer in layers:
            per_node[layer] = node.attach(layer, CountingProtocol())
        protocols.append(per_node)
    return net, protocols


class TestRoundExecution:
    def test_every_live_node_steps_every_layer(self):
        net, protocols = build(n=3)
        engine = Engine(net, streams=RandomStreams(1))
        engine.run(2)
        for per_node in protocols:
            assert per_node["a"].steps == 2
            assert per_node["b"].steps == 2

    def test_layer_context_set_per_protocol(self):
        net, protocols = build(n=1)
        Engine(net, streams=RandomStreams(1)).run(1)
        assert protocols[0]["a"].seen_layers == ["a"]
        assert protocols[0]["b"].seen_layers == ["b"]

    def test_dead_nodes_do_not_step(self):
        net, protocols = build(n=2)
        net.kill(0)
        Engine(net, streams=RandomStreams(1)).run(3)
        assert protocols[0]["a"].steps == 0
        assert protocols[1]["a"].steps == 3

    def test_round_counter_advances(self):
        net, _ = build()
        engine = Engine(net, streams=RandomStreams(1))
        engine.run(5)
        assert engine.round == 5

    def test_negative_budget_raises(self):
        net, _ = build()
        with pytest.raises(SimulationError):
            Engine(net, streams=RandomStreams(1)).run(-1)

    def test_run_returns_rounds_executed(self):
        net, _ = build()
        assert Engine(net, streams=RandomStreams(1)).run(4) == 4

    def test_node_killed_mid_round_skips_remaining_step(self):
        """A node killed by an earlier node's step must not execute."""
        net = Network()
        nodes = net.create_nodes(2)

        class Killer(Protocol):
            def step(self, ctx):
                for other in list(ctx.network.alive_ids()):
                    if other != ctx.node.node_id:
                        ctx.network.kill(other)

        counters = {}
        for node in nodes:
            node.attach("kill", Killer())
            counters[node.node_id] = node.attach("count", CountingProtocol())
        Engine(net, streams=RandomStreams(1)).run(1)
        # Exactly one node ran (whichever was scheduled first); the other
        # was killed before its turn.
        steps = sorted(c.steps for c in counters.values())
        assert steps == [0, 1]


class TestControlsAndObservers:
    def test_controls_run_before_steps(self):
        net, protocols = build(n=1)
        order = []

        class Before(Control):
            def before_round(self, network, round_index):
                order.append(("control", protocols[0]["a"].steps))

        engine = Engine(net, streams=RandomStreams(1), controls=[Before()])
        engine.run(1)
        assert order == [("control", 0)]

    def test_observer_stop_request_halts_run(self):
        net, _ = build(n=1)

        class StopAtOne(Instrument):
            def observe(self, network, round_index):
                return round_index >= 1

        engine = Engine(net, streams=RandomStreams(1), observers=[StopAtOne()])
        assert engine.run(10) == 2

    def test_add_control_and_observer(self):
        net, _ = build(n=1)
        engine = Engine(net, streams=RandomStreams(1))
        engine.add_control(Control())
        engine.add_observer(Instrument())
        assert len(engine.controls) == 1
        assert len(engine.observers) == 1


class TestDeterminism:
    def test_same_seed_same_order(self):
        def run_once(seed):
            net = Network()
            order = []

            class Recorder(Protocol):
                def step(self, ctx):
                    order.append(ctx.node.node_id)

            for node in net.create_nodes(6):
                node.attach("r", Recorder())
            Engine(net, streams=RandomStreams(seed)).run(2)
            return order

        assert run_once(5) == run_once(5)
        assert run_once(5) != run_once(6)  # overwhelmingly likely

    def test_context_rng_is_layer_and_node_scoped(self):
        net = Network()
        node = net.create_node()
        streams = RandomStreams(3)
        ctx = RoundContext(
            node=node, network=net, transport=None, streams=streams, round=0,
            layer="alpha",
        )
        assert ctx.rng() is streams.stream("alpha", node.node_id)
