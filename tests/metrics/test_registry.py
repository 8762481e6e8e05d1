"""MetricsRegistry — the shared aggregation path of every repro report view."""

from __future__ import annotations

import json

from repro.core import Runtime
from repro.obs.registry import MetricsRegistry
from repro.obs.collector import Collector
from repro.obs.hooks import attach_collector
from repro.obs.trace import TraceEvent


class TestSections:
    def test_add_and_render(self):
        registry = MetricsRegistry()
        registry.add_section("demo", ("a", "b"), [(1, 2), (3, 4)])
        assert registry.titles() == ["demo"]
        assert registry.section("demo")[1] == ("a", "b")
        assert registry.section("missing") is None
        rendered = registry.render()
        assert "demo" in rendered and "3" in rendered

    def test_empty_sections_are_not_rendered(self):
        registry = MetricsRegistry()
        registry.add_section("empty", ("a",), [])
        assert registry.render() == ""

    def test_to_dict_is_json_friendly(self):
        registry = MetricsRegistry()
        registry.add_section("demo", ("a",), [(1,)])
        assert json.loads(json.dumps(registry.to_dict())) == {
            "demo": {"headers": ["a"], "rows": [[1]]}
        }


class TestFeeders:
    def test_from_events_summarizes_kinds(self):
        events = [
            TraceEvent(round=0, kind="deploy", details={}),
            TraceEvent(round=2, kind="node_crash", details={}),
            TraceEvent(round=5, kind="node_crash", details={}),
        ]
        registry = MetricsRegistry.from_events(events)
        _title, _headers, rows = registry.section("events")
        assert ("node_crash", 2, 2, 5) in rows
        assert ("deploy", 1, 0, 0) in rows

    def test_for_deployment_has_all_telemetry_sections(
        self, two_component_assembly, fast_config
    ):
        deployment = Runtime(
            two_component_assembly, config=fast_config, seed=11
        ).deploy(24)
        report = deployment.run_until_converged(max_rounds=80)
        collector = Collector(gauge_every=0)
        collector.count("exchanges", 3, layer="uo1")
        collector.gauge("population", 24)
        collector.emit("deploy")
        collector.emit("mystery")
        registry = MetricsRegistry.for_deployment(deployment, report, collector)
        assert registry.titles() == [
            "convergence (rounds)",
            "bandwidth (bytes/node/round)",
            "counters",
            "gauges",
            "spans",
            "events",
            "unknown event kinds",
        ]

    def test_for_deployment_shares_the_telemetry_path(
        self, two_component_assembly, fast_config
    ):
        deployment = Runtime(
            two_component_assembly, config=fast_config, seed=11
        ).deploy(24)
        collector = attach_collector(deployment, gauge_every=4)
        report = deployment.run_until_converged(max_rounds=80)
        registry = MetricsRegistry.for_deployment(deployment, report, collector)
        titles = registry.titles()
        assert titles[0] == "convergence (rounds)"
        assert "bandwidth (bytes/node/round)" in titles
        # Identical section shapes to the telemetry-only view: one code path.
        telemetry_only = MetricsRegistry()
        telemetry_only.add_collector(collector)
        assert registry.section("counters") == telemetry_only.section("counters")
        _t, _h, rows = registry.section("convergence (rounds)")
        assert ("(executed)", report.executed) in rows
