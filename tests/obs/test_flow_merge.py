"""Cross-process flow-tracer merge: to_state / absorb_state / merge_flow_states."""

from __future__ import annotations

import json

from repro.gossip.descriptors import Descriptor
from repro.obs.collector import Collector
from repro.obs.flow import Delivery, FlowTracer, merge_flow_states
from tests.core.test_stack_golden import converge


def deliver(tracer, layer, round_index, receiver, sender, origin, minted=0):
    descriptor = Descriptor(origin, age=0, profile=None, provenance=minted)
    tracer.on_received(layer, round_index, receiver, sender, [descriptor])


class TestStateDump:
    def test_state_is_json_safe_and_lossless(self):
        tracer = FlowTracer()
        deliver(tracer, "overlay", 3, receiver=1, sender=2, origin=5, minted=1)
        deliver(tracer, "overlay", 4, receiver=1, sender=2, origin=5, minted=1)
        state = json.loads(json.dumps(tracer.to_state()))
        clone = FlowTracer()
        clone.absorb_state(state)
        assert clone.deliveries == tracer.deliveries == 2
        assert clone.latency_stats("overlay") == tracer.latency_stats("overlay")
        assert clone.edges == tracer.edges
        assert clone.first_delivery == tracer.first_delivery

    def test_absorb_tolerates_missing_keys(self):
        tracer = FlowTracer()
        tracer.absorb_state({})
        tracer.absorb_state({"deliveries": 2})
        assert tracer.deliveries == 2
        assert tracer.layers() == []

    def test_absorb_adds_counts(self):
        a, b = FlowTracer(), FlowTracer()
        deliver(a, "overlay", 2, receiver=1, sender=0, origin=3)
        deliver(b, "overlay", 2, receiver=1, sender=0, origin=3)
        a.absorb_state(b.to_state())
        assert a.deliveries == 2
        assert a.edges["overlay"][(0, 1)] == 2
        assert a.latency_stats("overlay")["count"] == 2

    def test_first_delivery_keeps_earliest_round_then_sender(self):
        a, b, c = FlowTracer(), FlowTracer(), FlowTracer()
        deliver(a, "overlay", 9, receiver=1, sender=0, origin=3)
        deliver(b, "overlay", 2, receiver=1, sender=7, origin=3)
        deliver(c, "overlay", 2, receiver=1, sender=5, origin=3)
        for order in ((a, b, c), (c, b, a)):
            merged = merge_flow_states(tracer.to_state() for tracer in order)
            assert merged.first_delivery["overlay"][(3, 1)] == Delivery(2, 5, 2)


class TestMergeFlowStates:
    def test_supervisor_merge_reconstructs_swarm_view(self):
        nodes = []
        for node_id in range(3):
            tracer = FlowTracer()
            deliver(
                tracer, "overlay", node_id + 1,
                receiver=node_id, sender=(node_id + 1) % 3, origin=9,
            )
            nodes.append(tracer.to_state())
        merged = merge_flow_states(nodes)
        assert merged.deliveries == 3
        assert len(merged.edges["overlay"]) == 3
        assert merged.critical_path("overlay") is not None

    def test_falsy_entries_skipped(self):
        tracer = FlowTracer()
        deliver(tracer, "overlay", 1, receiver=0, sender=1, origin=2)
        merged = merge_flow_states([None, {}, tracer.to_state()])
        assert merged.deliveries == 1

    def test_bad_dumps_degrade_to_partial_data(self):
        """A truncated dump, a malformed one and one whose ``first`` rows
        still carry the retired hops column: what precedes the damage is
        kept, the other nodes' dumps are whole, nothing raises."""
        good = FlowTracer()
        deliver(good, "overlay", 1, receiver=0, sender=1, origin=2)
        state = good.to_state()
        truncated = {"deliveries": 1, "latencies": state["latencies"]}
        malformed = {"latencies": "garbage", "edges": 7, "first": {"overlay": [[1]]}}
        six_columns = dict(state, first={"overlay": [[2, 0, 1, 1, 1, 1]]})
        merged = merge_flow_states([truncated, malformed, six_columns, state])
        assert merged.deliveries == 2  # the malformed and old dumps died before the count
        assert merged.latency_stats("overlay")["count"] == 3
        assert merged.edges["overlay"] == {(1, 0): 2}
        assert merged.first_delivery["overlay"] == {(2, 0): Delivery(1, 1, 1)}
        assert merged.critical_path("overlay").path == (2, 1, 0)

    def test_a_missing_relay_shortens_the_chain_and_its_hop_count_alike(self):
        """Node 3's dump never arrived: the chain jumps from its sender's
        place to the origin, and ``hops`` counts the edges that are left."""
        states = []
        for sender, receiver, round_index in ((1, 2, 1), (3, 4, 5)):
            tracer = FlowTracer()
            deliver(tracer, "overlay", round_index, receiver, sender, origin=1)
            states.append(tracer.to_state())
        path = merge_flow_states(states).critical_path("overlay")
        assert path.path == (1, 3, 4) and path.hops == 2


class TestMergedEqualsSingle:
    def test_per_node_tracers_merge_to_the_single_tracer(self):
        """One in-process traced run, replayed as the swarm sees it: every
        delivery goes to its receiver's own tracer, the supervisor merges
        the dumps, and the report — every critical path and its hop count
        included — is the one the single tracer gives."""
        single = FlowTracer()
        per_node = {}

        class Fanout(FlowTracer):
            def on_received(self, layer, round_index, receiver, sender, received):
                single.on_received(layer, round_index, receiver, sender, received)
                per_node.setdefault(receiver, FlowTracer()).on_received(
                    layer, round_index, receiver, sender, received
                )

        deployment, _, _ = converge("repair", 7, Collector(gauge_every=0, flow=Fanout()))
        # The run exercised what is compared: every surviving node took a
        # first delivery on every tagging layer (however short the run).
        live = set(deployment.network.alive_ids())
        assert live and live <= set(per_node)
        assert single.layers() == ["core", "peer_sampling", "uo1", "uo2"]
        for layer in single.layers():
            assert live <= {receiver for _, receiver in single.first_delivery[layer]}
        dumps = [json.loads(json.dumps(t.to_state())) for t in per_node.values()]
        merged = merge_flow_states(dumps)
        assert merged.deliveries == single.deliveries
        assert merged.to_state() == single.to_state()
        assert merged.summary() == single.summary()
        for layer in single.layers():
            path = merged.critical_path(layer)
            assert path == single.critical_path(layer)
            assert path.hops == len(path.path) - 1


class TestCrossNodeLatencyClamp:
    def test_negative_skew_clamps_to_zero(self):
        """A tag minted at a faster peer's round 5 arriving during the
        receiver's round 3 must not record a negative propagation latency
        (unsynchronized per-node round counters, see docs/observability.md)."""
        tracer = FlowTracer()
        deliver(tracer, "overlay", 3, receiver=1, sender=0, origin=7, minted=5)
        stats = tracer.latency_stats("overlay")
        assert stats["mean"] == 0.0
        assert tracer.first_delivery["overlay"][(7, 1)].latency == 0

    def test_in_process_latency_unchanged(self):
        tracer = FlowTracer()
        deliver(tracer, "overlay", 6, receiver=1, sender=0, origin=7, minted=2)
        assert tracer.latency_stats("overlay")["mean"] == 4.0


def test_delivery_record_shape():
    assert Delivery(round=1, sender=3, latency=1)._fields == (
        "round",
        "sender",
        "latency",
    )
