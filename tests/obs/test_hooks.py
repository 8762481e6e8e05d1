"""Wiring helpers and the tracers they register."""

from __future__ import annotations

from repro.core import Runtime
from repro.obs.collector import Collector
from repro.obs.hooks import attach_collector, attach_collector_to_engine
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport
from repro.sim.config import TransportCosts


class TestAttachCollector:
    def test_returns_a_fresh_collector_by_default(self, two_component_assembly):
        deployment = Runtime(two_component_assembly, seed=3).deploy(24)
        collector = attach_collector(deployment)
        assert isinstance(collector, Collector)
        assert deployment.engine.obs is collector
        assert collector.events[0].kind == "deploy"
        assert collector.events[0].details["nodes"] == 24

    def test_population_events_on_crash(self, two_component_assembly):
        deployment = Runtime(two_component_assembly, seed=3).deploy(24)
        collector = attach_collector(deployment, gauge_every=0)
        deployment.run(2)
        victim = next(iter(deployment.network.alive_ids()))
        deployment.network.kill(victim)
        deployment.run(2)
        crashes = [e for e in collector.events if e.kind == "node_crash"]
        assert [e.details["node"] for e in crashes] == [victim]
        assert collector.counter("node_crashes") == 1

    def test_shared_collector_aggregates_two_runs(self, two_component_assembly):
        collector = Collector(gauge_every=0)
        for seed in (3, 4):
            deployment = Runtime(two_component_assembly, seed=seed).deploy(24)
            attach_collector(deployment, collector)
            deployment.run(3)
        deploys = [e for e in collector.events if e.kind == "deploy"]
        assert len(deploys) == 2


class TestAttachCollectorToEngine:
    def test_bare_engine_gets_round_clock_and_gauges(self):
        network = Network()
        network.create_nodes(4)
        engine = Engine(network, Transport(TransportCosts()), RandomStreams(1))
        collector = attach_collector_to_engine(engine, gauge_every=1)
        engine.run_round()
        engine.run_round()
        assert collector.rounds_observed == 2
        assert collector.gauge_value("population") == 4
        event = collector.emit("heal")
        assert event.round == 2  # round clock bound to the engine
