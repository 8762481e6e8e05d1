"""Health rules and the alert lifecycle of the HealthMonitor.

Unit tests drive each rule with hand-written gauges; the scenario test pins
the acceptance contract — on a partition-and-heal run the stalled
convergence alert fires while the cut is open and clears after the heal.
"""

from __future__ import annotations

import pytest

from repro.heal.scenarios import run_scenario
from repro.obs.collector import Collector
from repro.obs.events import EVENT_ALERT, EVENT_ALERT_CLEARED
from repro.obs.health import (
    ChurnSpike,
    DeadDescriptorBuildup,
    DegreeSkew,
    HealthMonitor,
    PartitionSuspicion,
    StalledConvergence,
    default_rules,
)


def _check(rule, collector, round_index=0):
    return rule.check(collector, None, round_index)


class TestStalledConvergence:
    def test_fires_after_window_without_progress_and_resets_on_progress(self):
        collector = Collector(gauge_every=0)
        rule = StalledConvergence(expected_layers=5, window=3)
        collector.gauge("layers_converged", 2)
        assert _check(rule, collector, 0) is None
        assert _check(rule, collector, 1) is None
        evidence = _check(rule, collector, 2)
        assert evidence["stalled_rounds"] == 3
        assert evidence["layers_converged"] == 2
        # Progress resets the stall counter...
        collector.gauge("layers_converged", 3)
        assert _check(rule, collector, 3) is None
        # ...and full convergence keeps it healthy forever.
        collector.gauge("layers_converged", 5)
        for round_index in range(4, 10):
            assert _check(rule, collector, round_index) is None

    def test_silent_without_convergence_telemetry(self):
        rule = StalledConvergence(window=1)
        assert _check(rule, Collector(gauge_every=0)) is None


class TestPartitionSuspicion:
    def test_fires_when_fill_collapses_below_peak(self):
        collector = Collector(gauge_every=0)
        rule = PartitionSuspicion(layer="uo2", drop_fraction=0.5, window=2)
        collector.gauge("bucket_fill_mean", 0.8, layer="uo2")
        assert _check(rule, collector) is None  # establishes the peak
        collector.gauge("bucket_fill_mean", 0.3, layer="uo2")
        assert _check(rule, collector) is None  # 1st low round
        evidence = _check(rule, collector)
        assert evidence["peak"] == 0.8
        assert evidence["low_rounds"] == 2
        # Recovery above the threshold clears the streak.
        collector.gauge("bucket_fill_mean", 0.7, layer="uo2")
        assert _check(rule, collector) is None


class TestDegreeSkew:
    def test_reports_worst_layer_over_ratio(self):
        collector = Collector(gauge_every=0)
        collector.gauge("out_degree_mean", 4.0, layer="uo1")
        collector.gauge("out_degree_max", 40.0, layer="uo1")
        collector.gauge("out_degree_mean", 4.0, layer="core")
        collector.gauge("out_degree_max", 8.0, layer="core")
        evidence = _check(DegreeSkew(max_ratio=4.0), collector)
        assert evidence["layer"] == "uo1"
        assert evidence["ratio"] == 10.0

    def test_balanced_overlay_is_healthy(self):
        collector = Collector(gauge_every=0)
        collector.gauge("out_degree_mean", 4.0, layer="uo1")
        collector.gauge("out_degree_max", 6.0, layer="uo1")
        assert _check(DegreeSkew(max_ratio=4.0), collector) is None


class TestChurnSpike:
    def test_fires_on_burst_and_clears_on_quiet_round(self):
        collector = Collector(gauge_every=0)
        rule = ChurnSpike(threshold=3)
        collector.count("node_crashes", 4)
        evidence = _check(rule, collector)
        assert evidence["losses_this_round"] == 4
        # Ongoing trickle keeps the alert, a quiet round clears it.
        collector.count("node_leaves", 1)
        assert _check(rule, collector) is not None
        assert _check(rule, collector) is None


class TestDeadDescriptorBuildup:
    def test_fires_after_sustained_high_fraction(self):
        collector = Collector(gauge_every=0)
        rule = DeadDescriptorBuildup(threshold=0.2, window=2)
        collector.gauge("dead_descriptor_fraction", 0.5)
        assert _check(rule, collector) is None
        assert _check(rule, collector)["high_rounds"] == 2
        collector.gauge("dead_descriptor_fraction", 0.1)
        assert _check(rule, collector) is None


class TestMonitorLifecycle:
    def test_alert_and_clear_events_with_gauge(self):
        collector = Collector(gauge_every=0)
        monitor = HealthMonitor(
            collector, rules=[StalledConvergence(expected_layers=5, window=2)]
        )
        collector.gauge("layers_converged", 1)
        monitor.observe(None, 0)
        assert monitor.verdict() == "healthy"
        monitor.observe(None, 1)  # window reached: fires
        assert monitor.verdict() == "critical"
        assert [e.kind for e in collector.events] == [EVENT_ALERT]
        assert collector.events[0].details["rule"] == "stalled_convergence"
        assert collector.gauge_value("alerts_active") == 1
        # Edge-triggered: staying unhealthy emits nothing new.
        monitor.observe(None, 2)
        assert len(collector.events) == 1
        # Recovery clears with the active duration as evidence.
        collector.gauge("layers_converged", 5)
        monitor.observe(None, 3)
        assert [e.kind for e in collector.events] == [
            EVENT_ALERT,
            EVENT_ALERT_CLEARED,
        ]
        assert collector.events[1].details["active_rounds"] == 2
        assert monitor.verdict() == "healthy"
        summary = monitor.summary()
        assert summary["alerts_total"] == 1
        assert summary["alerts_active"] == 0
        assert summary["alerts"][0]["round_cleared"] == 3

    def test_default_rules_cover_every_failure_mode(self):
        names = {rule.name for rule in default_rules()}
        assert names == {
            "stalled_convergence",
            "partition_suspicion",
            "degree_skew",
            "churn_spike",
            "dead_descriptor_buildup",
        }


@pytest.mark.slow
class TestPartitionScenario:
    def test_stall_fires_during_partition_and_clears_after_heal(self):
        collector = Collector(gauge_every=1)
        result = run_scenario("partition", n_nodes=48, seed=1, collector=collector)
        health = result.health
        assert health is not None
        stalls = [
            alert
            for alert in health["alerts"]
            if alert["rule"] == "stalled_convergence"
        ]
        assert stalls, health["alerts"]
        fired = stalls[0]
        # Fires while the cut is open (the 20-round window), clears once
        # re-convergence resumes after the heal.
        assert fired["round_cleared"] is not None
        assert fired["round_cleared"] > fired["round_fired"]
        assert health["verdict"] == "healthy"
        assert result.report.healed
        kinds = [event.kind for event in collector.events]
        assert EVENT_ALERT in kinds and EVENT_ALERT_CLEARED in kinds
