"""Causal propagation tracing: tagging, delivery records, critical path.

Unit tests drive a :class:`FlowTracer` by hand; the integration tests pin
the acceptance contract — on a seeded two-component deployment the derived
critical path is deterministic, and enabling tracing never perturbs the
overlay (digest identity with the untraced run).
"""

from __future__ import annotations

import pytest

from repro.core import Runtime
from repro.gossip.descriptors import Descriptor
from repro.obs.collector import Collector
from repro.obs.flow import CriticalPath, Delivery, FlowTracer
from repro.obs.hooks import attach_collector
from repro.perf.digest import overlay_digest
from repro.perf.workloads import run_cell, workload_matrix
from repro.sim.engine import RoundContext
from repro.sim.transport import ExchangeRequest

RUNTIME_LAYERS = (
    "peer_sampling",
    "core",
    "uo1",
    "uo2",
    "port_selection",
    "port_connection",
)


def context(deployment, node_id, layer, round_index, obs):
    return RoundContext(
        node=deployment.network.node(node_id),
        network=deployment.network,
        transport=deployment.transport,
        streams=deployment.streams,
        round=round_index,
        layer=layer,
        obs=obs,
    )


class TestTagging:
    @pytest.mark.parametrize("layer", ["peer_sampling", "core", "uo1", "uo2"])
    def test_offer_tags_the_own_advert_with_its_round(self, two_component_assembly, layer):
        """The tag names no origin because only a node's own advertisement
        is ever minted: every tagged descriptor's origin is its ``node_id``.
        The partner, node 5, is node 4's ring neighbour, so the core ranks
        node 4's advert among the closest to it."""
        deployment = Runtime(two_component_assembly, seed=3).deploy(24)
        collector = attach_collector(deployment, gauge_every=0, flow=FlowTracer())
        protocol = deployment.network.node(4).protocol(layer)
        ctx = context(deployment, 4, layer, 3, collector)
        buffer, _ = protocol._offer(ctx, collector.flow, 5, None)
        assert [(d.node_id, d.provenance) for d in buffer if d.provenance is not None] == [
            (4, 3)
        ]
        plain, _ = protocol._offer(ctx, None, 5, None)
        assert all(d.provenance is None for d in plain)

    def test_on_received_only_reads(self):
        tracer = FlowTracer()
        tagged = Descriptor(1, age=2).tagged(0)
        plain = Descriptor(2, age=5)
        received = [tagged, plain]
        assert tracer.on_received("uo1", 4, receiver=9, sender=5, received=received) is None
        assert received[0] is tagged and received[1] is plain
        assert tagged.provenance == 0
        assert tracer.deliveries == 1  # the untagged one is not a delivery


class TestDeliveryRecords:
    def test_first_delivery_latency_and_edges(self):
        tracer = FlowTracer()
        d = Descriptor(1, age=0).tagged(0)
        tracer.on_received("uo1", 3, receiver=9, sender=5, received=[d])
        assert tracer.deliveries == 1
        assert tracer.first_delivery["uo1"][(1, 9)] == Delivery(
            round=3, sender=5, latency=3
        )
        assert tracer.edges["uo1"] == {(5, 9): 1}
        # A later copy of the same origin does not overwrite the first.
        tracer.on_received(
            "uo1", 8, receiver=9, sender=6,
            received=[Descriptor(1, age=0).tagged(0), Descriptor(2, age=0).tagged(7)],
        )
        assert tracer.first_delivery["uo1"][(1, 9)].round == 3
        # One count per delivered descriptor, added once per exchange.
        assert tracer.edges["uo1"] == {(5, 9): 1, (6, 9): 2}

    def test_own_knowledge_echoed_back_is_not_a_delivery(self):
        tracer = FlowTracer()
        echo = Descriptor(9, age=1).tagged(0)
        tracer.on_received("uo1", 2, receiver=9, sender=5, received=[echo])
        assert tracer.deliveries == 0
        assert tracer.first_delivery.get("uo1") == {}
        assert tracer.edges.get("uo1", {}) == {}  # nor an edge

    def test_latency_stats_percentiles(self):
        tracer = FlowTracer()
        for latency, count in ((1, 8), (2, 1), (10, 1)):
            for i in range(count):
                d = Descriptor(100 + latency * 20 + i, age=0).tagged(0)
                tracer.on_received("uo1", latency, 1, 2, [d])
        stats = tracer.latency_stats("uo1")
        assert stats["count"] == 10
        assert stats["p50"] == 1
        assert stats["p95"] == 10
        assert stats["max"] == 10
        assert stats["mean"] == pytest.approx(2.0)
        assert tracer.latency_stats("nope") is None


class TestPassiveAttribution:
    @pytest.mark.parametrize("layer", ["peer_sampling", "uo1", "uo2"])
    def test_passive_delivery_is_attributed_to_the_wire_sender(self, two_component_assembly, layer):
        """``NetRunner.make_context`` hands ``on_request`` the *receiver's*
        context; the flow edge must still start at the wire sender."""
        deployment = Runtime(two_component_assembly, seed=3).deploy(24)
        tracer = FlowTracer()
        collector = attach_collector(deployment, gauge_every=0, flow=tracer)
        sender, receiver = 4, 9
        advert = (
            deployment.network.node(sender)
            .protocol(layer)
            .self_descriptor()
            .tagged(0)
        )
        ctx = context(deployment, receiver, layer, 1, collector)
        deployment.network.node(receiver).protocol(layer).on_request(
            ctx, ExchangeRequest(layer, sender, [advert])
        )
        assert tracer.edges[layer] == {(sender, receiver): 1}


class TestCriticalPath:
    def _feed(self, tracer, layer, origin, sender, receiver, round_index):
        d = Descriptor(origin, age=0).tagged(0)
        tracer.on_received(layer, round_index, receiver, sender, [d])

    def test_chain_reconstructed_backwards_through_first_receipts(self):
        tracer = FlowTracer()
        # origin 1 reaches 2 (r1), 2 relays to 3 (r2), 3 relays to 4 (r5).
        self._feed(tracer, "uo1", origin=1, sender=1, receiver=2, round_index=1)
        self._feed(tracer, "uo1", origin=1, sender=2, receiver=3, round_index=2)
        self._feed(tracer, "uo1", origin=1, sender=3, receiver=4, round_index=5)
        path = tracer.critical_path("uo1")
        assert path == CriticalPath(
            layer="uo1", origin=1, receiver=4, closed_round=5, hops=3,
            path=(1, 2, 3, 4),
        )

    def test_last_closed_pair_wins_with_deterministic_tie_break(self):
        tracer = FlowTracer()
        self._feed(tracer, "uo1", origin=1, sender=1, receiver=5, round_index=4)
        self._feed(tracer, "uo1", origin=2, sender=2, receiver=6, round_index=4)
        # Equal closing rounds: the larger (origin, receiver) pair wins.
        assert tracer.critical_path("uo1").origin == 2
        assert tracer.critical_path("empty") is None

    def test_summary_is_plain_data(self):
        tracer = FlowTracer()
        self._feed(tracer, "uo1", origin=1, sender=1, receiver=2, round_index=1)
        summary = tracer.summary()
        assert summary["uo1"]["deliveries"] == 1
        assert summary["uo1"]["known_pairs"] == 1
        assert summary["uo1"]["critical_path"]["path"] == (1, 2)


class TestSeededDeployment:
    def _traced_run(self, assembly, seed):
        deployment = Runtime(assembly, seed=seed).deploy(24)
        collector = attach_collector(deployment, gauge_every=0, flow=FlowTracer())
        report = deployment.run_until_converged(max_rounds=80)
        return deployment, collector, report

    def test_critical_path_is_deterministic_per_seed(self, two_component_assembly):
        _, first, report = self._traced_run(two_component_assembly, 11)
        _, second, _ = self._traced_run(two_component_assembly, 11)
        assert report.converged
        paths_a = {
            layer: first.flow.critical_path(layer) for layer in first.flow.layers()
        }
        paths_b = {
            layer: second.flow.critical_path(layer) for layer in second.flow.layers()
        }
        assert paths_a and paths_a == paths_b
        assert "peer_sampling" in paths_a

    def test_tracing_never_perturbs_the_overlay(self, two_component_assembly):
        plain = Runtime(two_component_assembly, seed=11).deploy(24)
        plain_report = plain.run_until_converged(max_rounds=80)
        traced, _, traced_report = self._traced_run(two_component_assembly, 11)
        assert traced_report.rounds == plain_report.rounds
        assert overlay_digest(traced.network, RUNTIME_LAYERS) == overlay_digest(
            plain.network, RUNTIME_LAYERS
        )

    def test_workload_digest_identical_with_tracer(self):
        workload = workload_matrix("ci")[0]
        baseline = run_cell(workload.config(7), workload.max_rounds)
        traced = run_cell(
            workload.config(7),
            workload.max_rounds,
            collector=Collector(gauge_every=0, flow=FlowTracer()),
        )
        assert traced.digest == baseline.digest
