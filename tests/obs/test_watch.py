"""The dashboard renderer and the span self-time profile.

Both are pure functions of a collector, so the tests feed hand-built
telemetry and assert on the rendered text / computed rows — no terminal,
and no engine but the one round that pins where the engine opens ``act``.
"""

from __future__ import annotations

import random

import pytest

from repro.core import Runtime
from repro.experiments.topologies import ring_of_rings
from repro.gossip.descriptors import Descriptor
from repro.heal.engine import RemediationEngine
from repro.obs.registry import MetricsRegistry
from repro.obs.collector import Collector
from repro.obs.flow import FlowTracer
from repro.obs.health import Alert, HealthMonitor, StalledConvergence
from repro.obs.hooks import attach_collector
from repro.obs.watch import profile_rows, render_dashboard


class _StubMonitor:
    """Minimal HealthMonitor surface for driving the remediation engine."""

    def __init__(self):
        self.collector = Collector(gauge_every=0)
        self.listeners = []

    def subscribe(self, listener):
        self.listeners.append(listener)

    def fire(self, rule, round_index, severity="critical"):
        alert = Alert(rule=rule, severity=severity, round_fired=round_index)
        for listener in self.listeners:
            listener(alert, True, round_index)
        return alert


def _ticking_clock(step: float = 1.0):
    state = {"now": 0.0}

    def clock() -> float:
        state["now"] += step
        return state["now"]

    return clock


class TestDashboard:
    def test_minimal_frame_has_header_and_status(self):
        collector = Collector(gauge_every=0)
        frame = render_dashboard(collector, round_index=7)
        assert frame.startswith("repro watch — round 7\n")
        assert "population: -/-" in frame
        assert "events: 0" in frame

    def test_layer_table_rows(self):
        collector = Collector(gauge_every=0)
        collector.count("exchanges", 12, layer="uo1")
        collector.count("descriptors_sent", 60, layer="uo1")
        collector.gauge("out_degree_mean", 4.25, layer="uo1")
        collector.gauge("out_degree_max", 8, layer="uo1")
        frame = render_dashboard(collector)
        assert "layers" in frame
        assert "uo1" in frame
        assert "4.25" in frame

    def test_flow_table_shows_critical_path(self):
        flow = FlowTracer()
        tagged = Descriptor(1, age=0).tagged(0)
        flow.on_received("uo1", 3, receiver=9, sender=1, received=[tagged])
        collector = Collector(gauge_every=0, flow=flow)
        frame = render_dashboard(collector)
        assert "information flow" in frame
        assert "1->9 (closed r3, 1 hops)" in frame

    def test_health_section_lists_active_alerts(self):
        collector = Collector(gauge_every=0)
        monitor = HealthMonitor(
            collector, rules=[StalledConvergence(expected_layers=5, window=1)]
        )
        collector.gauge("layers_converged", 1)
        monitor.observe(None, 4)
        frame = render_dashboard(collector, health=monitor, round_index=4)
        assert "health: critical" in frame
        assert "active alerts" in frame
        assert "stalled_convergence" in frame
        assert "expected_layers=5" in frame

    def test_healthy_monitor_renders_no_alert_table(self):
        collector = Collector(gauge_every=0)
        monitor = HealthMonitor(collector, rules=[])
        frame = render_dashboard(collector, health=monitor)
        assert "health: healthy" in frame
        assert "active alerts: none" in frame

    def test_idle_engine_renders_status_without_table(self):
        monitor = _StubMonitor()
        engine = RemediationEngine(
            deployment=None, monitor=monitor, rng=random.Random(0), actions={}
        )
        frame = render_dashboard(monitor.collector, heal=engine)
        assert "remediation: idle" in frame
        assert "actions run: 0" in frame
        assert "escalations" not in frame
        assert "active remediations" not in frame

    def test_remediation_panel_lists_active_incidents(self):
        monitor = _StubMonitor()
        engine = RemediationEngine(
            deployment=None, monitor=monitor, rng=random.Random(0), actions={}
        )
        monitor.fire("degree_skew", 2, severity="warning")
        frame = render_dashboard(monitor.collector, heal=engine, round_index=2)
        assert "remediation: active" in frame
        assert "active remediations" in frame
        assert "degree_skew" in frame
        assert "warning" in frame
        assert "attempts" in frame
        assert "L0" not in frame  # no escalation level column


class TestProfile:
    def _profiled_collector(self) -> Collector:
        """round ⊃ {steps ⊃ {layer:a, layer:b}, observe} with known totals."""
        collector = Collector(gauge_every=0, clock=_ticking_clock())
        # Nested begin/ends; each begin/end pair consumes 2 ticks, so every
        # enclosing span's total strictly exceeds its children's sum.
        collector.span_begin("round")
        collector.span_begin("steps")
        collector.span_begin("layer:a")
        collector.span_end("layer:a")
        collector.span_begin("layer:b")
        collector.span_end("layer:b")
        collector.span_end("steps")
        collector.span_begin("observe")
        collector.span_end("observe")
        collector.span_end("round")
        return collector

    def test_self_time_subtracts_direct_children(self):
        collector = self._profiled_collector()
        rows = {name: (count, total, self_s) for name, count, total, self_s in profile_rows(collector)}
        steps_count, steps_total, steps_self = rows["steps"]
        _, a_total, a_self = rows["layer:a"]
        _, b_total, b_self = rows["layer:b"]
        # Leaves own their full total.
        assert a_self == a_total and b_self == b_total
        assert steps_self == pytest.approx(steps_total - a_total - b_total)
        _, round_total, round_self = rows["round"]
        _, observe_total, _ = rows["observe"]
        assert round_self == pytest.approx(
            round_total - steps_total - observe_total
        )

    def test_act_span_nests_under_round(self):
        # The remediation step runs inside the round span; its cost must be
        # subtracted from the round's self-time like steps and observe.
        collector = Collector(gauge_every=0, clock=_ticking_clock())
        collector.span_begin("round")
        collector.span_begin("act")
        collector.span_end("act")
        collector.span_end("round")
        rows = {
            name: (total, self_s)
            for name, _count, total, self_s in profile_rows(collector)
        }
        act_total, act_self = rows["act"]
        round_total, round_self = rows["round"]
        assert act_self == act_total  # leaf owns its full total
        assert round_self == pytest.approx(round_total - act_total)

    def test_engine_closes_observe_before_act(self):
        # A real managed round: the remediation step must not run inside
        # ``observe``, or the profile counts it twice and clamps ``round``.
        ticks = {"now": 0.0}

        def clock() -> float:
            ticks["now"] += 1.0
            return ticks["now"]

        deployment = Runtime(ring_of_rings(n_rings=2, ring_size=4), seed=0).deploy()
        collector = attach_collector(
            deployment, Collector(gauge_every=0, clock=clock), health=True
        )
        heal = RemediationEngine.for_deployment(deployment, collector.health)
        act = heal.act

        def slow_act(network, round_index):
            ticks["now"] += 100.0  # a remediation step far longer than the gaps
            act(network, round_index)

        heal.act = slow_act
        deployment.run(1)
        rows = {name: (total, self_s) for name, _count, total, self_s in profile_rows(collector)}
        assert set(rows) == {"round", "steps", "observe", "act"}
        assert rows["observe"][0] < 100.0
        assert sum(self_s for _total, self_s in rows.values()) == pytest.approx(rows["round"][0])

    def test_rows_sorted_by_self_time_descending(self):
        rows = profile_rows(self._profiled_collector())
        self_times = [self_s for _name, _count, _total, self_s in rows]
        assert self_times == sorted(self_times, reverse=True)

    def test_unknown_spans_count_as_their_own_self_time(self):
        collector = Collector(gauge_every=0, clock=_ticking_clock())
        collector.span_begin("custom")
        collector.span_end("custom")
        ((name, count, total, self_s),) = profile_rows(collector)
        assert name == "custom"
        assert count == 1
        assert self_s == total

    def test_render_profile_table_and_empty_fallback(self):
        # The rendered table is MetricsRegistry.add_profile's (what
        # `repro report --profile` prints); profile_rows feeds it.
        registry = MetricsRegistry()
        registry.add_profile(self._profiled_collector())
        text = registry.render()
        assert "span profile (self-time)" in text
        assert "layer:a" in text
        assert "self %" in text
        empty = MetricsRegistry()
        empty.add_profile(Collector(gauge_every=0))
        assert empty.section("span profile (self-time)")[2] == []


class TestSwarmNodesPanel:
    def node_record(self, node=0):
        from repro.obs.collector import Histogram

        rtt = Histogram()
        rtt.record(0.004)
        rtt.record(0.012)
        return {
            "node": node,
            "round": 9,
            "peers_known": 5,
            "wire": {"bytes_sent": 1200, "bytes_received": 900},
            "peer": {"drops": {"1": 2, "2": 1}},
            "rtt": {"overlay": rtt.to_dict()},
            "lamport": 41,
        }

    def test_panel_renders_per_node_telemetry(self):
        collector = Collector(gauge_every=0)
        frame = render_dashboard(collector, nodes={0: self.node_record()})
        assert "swarm nodes" in frame
        assert "rtt ms" in frame and "lamport" in frame
        assert "1200" in frame and "900" in frame
        assert "41" in frame
        assert "8.00" in frame  # mean of 4ms and 12ms
        # all three per-peer drops summed into one cell
        lines = [line for line in frame.splitlines() if line.lstrip().startswith("0 ")]
        assert any(" 3 " in line for line in lines)

    def test_panel_tolerates_sparse_records(self):
        collector = Collector(gauge_every=0)
        frame = render_dashboard(collector, nodes={3: {"round": 1}})
        assert "swarm nodes" in frame
        assert "-" in frame  # missing rtt renders as dashes

    def test_no_nodes_no_panel(self):
        collector = Collector(gauge_every=0)
        assert "swarm nodes" not in render_dashboard(collector)
        assert "swarm nodes" not in render_dashboard(collector, nodes={})

    def test_nodes_sorted_by_id(self):
        collector = Collector(gauge_every=0)
        frame = render_dashboard(
            collector,
            nodes={2: self.node_record(2), 0: self.node_record(0)},
        )
        lines = frame[frame.index("swarm nodes"):].splitlines()
        node_rows = [
            index
            for index, line in enumerate(lines)
            if line.split()[:1] in (["0"], ["2"])
        ]
        first, second = node_rows
        assert lines[first].split()[0] == "0"
        assert lines[second].split()[0] == "2"
