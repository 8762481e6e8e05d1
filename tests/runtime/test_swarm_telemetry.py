"""Supervisor-side telemetry merge: flow states, histograms, event streams."""

from __future__ import annotations

from repro.gossip.descriptors import Descriptor
from repro.obs.collector import Collector, Histogram
from repro.obs.flow import FlowTracer
from repro.runtime.swarm import SwarmReport, merge_node_events, merge_telemetry
from repro.runtime.telemetry import TelemetryStream


def node_status(node, *, with_flow=True, with_rtt=True):
    """A synthetic status record shaped like _swarm_node's publish()."""
    record = {"node": node, "round": 3, "neighbors": [node + 1], "wire": {}}
    if with_flow:
        tracer = FlowTracer()
        descriptor = Descriptor(9, age=0, profile=None, provenance=0)
        tracer.on_received("overlay", 2, node, (node + 1) % 4, [descriptor])
        record["flow"] = tracer.to_state()
    if with_rtt:
        histogram = Histogram()
        histogram.record(0.002 * (node + 1))
        record["rtt"] = {"overlay": histogram.to_dict()}
    return record


class TestMergeTelemetry:
    def test_flow_states_merge_into_one_tracer(self):
        collector = Collector(gauge_every=0)
        statuses = {node: node_status(node) for node in range(3)}
        merge_telemetry(collector, statuses)
        assert collector.flow is not None
        assert collector.flow.deliveries == 3
        assert len(collector.flow.edges["overlay"]) == 3

    def test_rtt_histograms_merge_per_layer(self):
        collector = Collector(gauge_every=0)
        merge_telemetry(collector, {node: node_status(node) for node in range(3)})
        merged = collector.histograms.get(("gossip_rtt", "overlay"))
        assert merged is not None and merged.count == 3
        assert merged.vmax == 0.006

    def test_rebuild_from_scratch_never_double_counts(self):
        collector = Collector(gauge_every=0)
        statuses = {0: node_status(0)}
        merge_telemetry(collector, statuses)
        merge_telemetry(collector, statuses)  # supervisor polls repeatedly
        assert collector.flow.deliveries == 1
        assert collector.histograms.get(("gossip_rtt", "overlay")).count == 1

    def test_malformed_node_dump_degrades_gracefully(self):
        collector = Collector(gauge_every=0)
        bad = {"node": 1, "flow": {"latencies": "garbage"}, "rtt": {"overlay": 7}}
        merge_telemetry(collector, {0: node_status(0), 1: bad})
        # the good node's histogram survives, the bad one is skipped
        assert collector.histograms.get(("gossip_rtt", "overlay")).count == 1

    def test_statuses_without_telemetry_are_fine(self):
        collector = Collector(gauge_every=0)
        merge_telemetry(
            collector,
            {0: {"node": 0, "round": 1, "neighbors": []}},
        )
        assert collector.histograms.get(("gossip_rtt", "overlay")) is None


class TestSwarmReportTelemetry:
    def make_report(self, **overrides):
        defaults = dict(
            n_nodes=2,
            shape="ring",
            seed=1,
            round_interval=0.2,
            converged=True,
            rounds=5,
            verdict="healthy",
            nodes={
                0: {"round": 5, "neighbors": [1], "wire": {"bytes_sent": 10},
                    "metrics_port": 40001, "lamport": 17},
            },
        )
        defaults.update(overrides)
        return SwarmReport(**defaults)

    def test_to_dict_carries_flow_and_rtt(self):
        report = self.make_report(
            flow={"overlay": {"deliveries": 4}},
            rtt={"overlay": {"count": 9, "mean_seconds": 0.001,
                             "p95_seconds": 0.002, "max_seconds": 0.003}},
        )
        data = report.to_dict()
        assert data["flow"]["overlay"]["deliveries"] == 4
        assert data["rtt"]["overlay"]["count"] == 9
        assert data["nodes"]["0"]["metrics_port"] == 40001
        assert data["nodes"]["0"]["lamport"] == 17

    def test_to_dict_defaults(self):
        data = self.make_report().to_dict()
        assert data["flow"] is None
        assert data["rtt"] == {}


class TestMergeNodeEvents:
    def write_stream(self, path, node, rounds):
        collector = Collector(gauge_every=0)
        stream = TelemetryStream(str(path))
        collector.emit("node_up", node=node)
        stream.flush(collector)
        for round_index in rounds:
            collector._round = round_index  # what bind_round_source would do
            collector.emit("node_round", node=node, round=round_index)
            stream.flush(collector)

    def test_merged_stream_is_round_ordered(self, tmp_path):
        collector = Collector(gauge_every=0)
        for node, rounds in ((0, (1, 3)), (1, (2,))):
            path = tmp_path / f"node-{node}.jsonl"
            stream = TelemetryStream(str(path))
            collector_n = Collector(gauge_every=0)
            source = iter([0] + list(rounds))
            collector_n.bind_round_source(lambda it=source: next(it))
            collector_n.emit("node_up", node=node)
            for round_index in rounds:
                collector_n.emit("node_round", node=node, round=round_index)
            stream.flush(collector_n)
        events = merge_node_events(str(tmp_path))
        assert [event.kind for event in events[:2]] == ["node_up", "node_up"]
        assert [event.round for event in events] == sorted(
            event.round for event in events
        )
        assert len(events) == 5

    def test_empty_directory_yields_no_events(self, tmp_path):
        assert merge_node_events(str(tmp_path)) == []
