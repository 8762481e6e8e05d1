"""Tests for structured event tracing."""

from __future__ import annotations

import json

import pytest

from repro.core import Runtime
from repro.dsl import TopologyBuilder
from repro.obs.hooks import attach_collector
from repro.obs.trace import TraceEvent


def small_deployment(seed=81):
    builder = TopologyBuilder("Traced")
    builder.component("ring", "ring", size=12).port("gate", "lowest_id")
    builder.component("cell", "clique", size=6).port("gate", "lowest_id")
    builder.link(("ring", "gate"), ("cell", "gate"))
    return Runtime(builder.nodes(18).build(), seed=seed).deploy()


class TestTracer:
    def test_json_round_trip(self):
        event = TraceEvent(0, "deploy", {"nodes": 18})
        parsed = json.loads(json.dumps(event.to_dict()))
        assert parsed == {"round": 0, "kind": "deploy", "details": {"nodes": 18}}
        assert TraceEvent.from_dict(parsed) == event

    def test_details_cannot_shadow_round_or_kind(self):
        # Regression: details named "round"/"kind" used to overwrite the
        # event's own fields in the flat serialization.
        event = TraceEvent(0, "custom", {"round": "shadow", "kind": "shadow"})
        data = event.to_dict()
        assert data["round"] == 0 and data["kind"] == "custom"
        assert data["details"] == {"round": "shadow", "kind": "shadow"}
        assert TraceEvent.from_dict(data) == event

    def test_from_dict_rejects_flat_layout(self):
        with pytest.raises(KeyError):
            TraceEvent.from_dict({"round": 4, "kind": "deploy", "nodes": 18})
        with pytest.raises(TypeError):
            TraceEvent.from_dict({"round": 4, "kind": "deploy", "details": 18})

    def test_event_str(self):
        assert str(TraceEvent(3, "x")) == "[   3] x"


def of_kind(collector, kind):
    return [event for event in collector.events if event.kind == kind]


class TestAttachedTracer:
    def test_deploy_event_emitted(self):
        deployment = small_deployment()
        collector = attach_collector(deployment, gauge_every=0)
        deploys = of_kind(collector, "deploy")
        assert len(deploys) == 1
        assert deploys[0].details["assembly"] == "Traced"
        assert deploys[0].details["nodes"] == 18

    def test_layer_convergence_events(self):
        deployment = small_deployment()
        collector = attach_collector(deployment, gauge_every=0)
        deployment.run_until_converged(80)
        converged = of_kind(collector, "layer_converged")
        assert {event.details["layer"] for event in converged} == {
            "core",
            "uo1",
            "uo2",
            "port_selection",
            "port_connection",
        }
        for event in converged:
            assert event.details["at"] >= 1

    def test_crash_and_revive_events(self):
        deployment = small_deployment()
        collector = attach_collector(deployment, gauge_every=0)
        deployment.run(2)
        deployment.network.kill(5)
        deployment.run(1)
        deployment.network.revive(5)
        deployment.run(1)
        assert [e.details["node"] for e in of_kind(collector, "node_crash")] == [5]
        assert [e.details["node"] for e in of_kind(collector, "node_up")] == [5]

    def test_join_events(self):
        deployment = small_deployment()
        collector = attach_collector(deployment, gauge_every=0)
        deployment.run(1)
        node = deployment.network.create_node()
        deployment.provisioner()(deployment.network, node)
        deployment.run(1)
        ups = of_kind(collector, "node_up")
        assert node.node_id in [event.details["node"] for event in ups]
