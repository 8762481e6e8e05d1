"""Collector correctness under a seeded two-component workload.

The key cross-check: the runtime's transport already counts messages
independently of the obs hooks, so ``2 * exchanges == total_messages`` per
layer is a strong end-to-end test that the hot-path counters fire exactly
once per push-pull exchange — no double counting, no missed paths.
"""

from __future__ import annotations

import pytest

from repro.core import Runtime
from repro.obs.collector import Collector
from repro.obs.hooks import attach_collector

#: Layers whose step() performs a push-pull exchange through the transport.
EXCHANGE_LAYERS = (
    "peer_sampling",
    "core",
    "uo1",
    "uo2",
    "port_selection",
    "port_connection",
)


@pytest.fixture
def instrumented_pair(two_component_assembly):
    deployment = Runtime(two_component_assembly, seed=11).deploy(24)
    collector = attach_collector(deployment, gauge_every=1)
    report = deployment.run_until_converged(max_rounds=80)
    assert report.converged
    return deployment, collector, report


class TestCounters:
    def test_exchanges_match_transport_per_layer(self, instrumented_pair):
        deployment, collector, _report = instrumented_pair
        for layer in EXCHANGE_LAYERS:
            exchanges = collector.counter("exchanges", layer=layer)
            assert exchanges > 0, layer
            # Each push-pull exchange is two messages in the byte model.
            assert 2 * exchanges == deployment.transport.total_messages(layer)

    def test_descriptor_flow_is_symmetric(self, instrumented_pair):
        _deployment, collector, _report = instrumented_pair
        for layer in EXCHANGE_LAYERS:
            sent = collector.counter("descriptors_sent", layer=layer)
            received = collector.counter("descriptors_received", layer=layer)
            # Every descriptor sent by one side is received by the other,
            # and both sides of every exchange are counted.
            assert sent == received
            assert sent > 0, layer

    def test_view_maintenance_counters(self, instrumented_pair):
        _deployment, collector, _report = instrumented_pair
        for layer in ("peer_sampling", "core", "uo1"):
            assert collector.counter("view_replacements", layer=layer) > 0
            assert collector.counter("descriptor_churn", layer=layer) > 0


class TestGaugesAndEvents:
    def test_structural_gauges_sampled(self, instrumented_pair):
        _deployment, collector, _report = instrumented_pair
        assert collector.gauge_value("population") == 24
        assert collector.gauge_value("population_alive") == 24
        for layer in ("peer_sampling", "uo1"):
            assert collector.gauge_value("out_degree_mean", layer=layer) > 0
            assert collector.gauge_value("in_degree_mean", layer=layer) > 0

    def test_uo2_bucket_occupancy(self, instrumented_pair):
        _deployment, collector, _report = instrumented_pair
        fill = collector.gauge_value("bucket_fill_mean", layer="uo2")
        assert fill is not None and 0 < fill <= 1.0
        assert collector.gauge_value("buckets_per_node_mean", layer="uo2") == 1

    def test_deploy_and_convergence_events(self, instrumented_pair):
        _deployment, collector, report = instrumented_pair
        kinds = [event.kind for event in collector.events]
        assert kinds[0] == "deploy"
        converged_layers = {
            event.details["layer"]
            for event in collector.events
            if event.kind == "layer_converged"
        }
        assert converged_layers == set(report.rounds)

    def test_spans_cover_every_round(self, instrumented_pair):
        _deployment, collector, report = instrumented_pair
        assert collector.spans.counts["round"] == report.executed
        assert collector.spans.counts["steps"] == report.executed
        assert collector.spans.totals["round"] >= collector.spans.totals["steps"]

    def test_unknown_kinds_are_tallied(self):
        collector = Collector(gauge_every=0)
        collector.emit("deploy")
        collector.emit("totally-novel")
        collector.emit("totally-novel")
        assert collector.unknown_kinds == {"totally-novel": 2}

    def test_snapshot_is_plain_data(self, instrumented_pair):
        import json

        _deployment, collector, _report = instrumented_pair
        snapshot = collector.snapshot()
        json.dumps(snapshot)  # must be JSON-serializable as-is
        assert snapshot["rounds_observed"] > 0
        assert snapshot["events"] == len(collector.events)


class TestGaugeSampling:
    def test_gauge_every_zero_disables_structural_sampling(self, two_component_assembly):
        deployment = Runtime(two_component_assembly, seed=11).deploy(24)
        collector = attach_collector(deployment, gauge_every=0)
        deployment.run(5)
        assert collector.gauge_value("population") is None
        assert collector.gauge_value("out_degree_mean", layer="uo1") is None
        # Counters and spans still flow — they are push-based.
        assert collector.counter("exchanges", layer="peer_sampling") > 0
        assert collector.spans.counts["round"] == 5
