"""The convergence tracker is the one legality ledger.

Each observed round judges every layer exactly once; time-to-repair and the
convergence telemetry read that one record instead of judging again.
"""

from __future__ import annotations

import ast
import inspect

import pytest

import repro.core.convergence as convergence
import repro.obs.recovery as recovery
from repro.core import Runtime
from repro.dsl import TopologyBuilder
from repro.heal.scenarios import run_scenario
from repro.obs.collector import Collector
from repro.obs.hooks import attach_collector

PREDICATES = {
    "core_score",
    "core_converged",
    "uo1_converged",
    "uo2_converged",
    "port_selection_converged",
    "port_connection_converged",
    "layer_converged",
}


def pair_assembly():
    builder = TopologyBuilder("Pair")
    builder.component("ring", "ring", size=12).port("gate", "lowest_id")
    builder.component("cell", "clique", size=6).port("gate", "lowest_id")
    builder.link(("ring", "gate"), ("cell", "gate"))
    return builder.nodes(18).build()


@pytest.fixture(scope="module")
def partition_run():
    """A 48-node ``partition`` scenario with telemetry, counting every
    ``core_score`` computation and every ``layers_converged`` write."""
    calls = {"core_score": 0, "layers_converged": 0}
    core_score, gauge = convergence.core_score, Collector.gauge

    def counting_core_score(*args):
        calls["core_score"] += 1
        return core_score(*args)

    def counting_gauge(self, name, value, layer=""):
        calls["layers_converged"] += name == "layers_converged"
        gauge(self, name, value, layer)

    collector = Collector()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(convergence, "core_score", counting_core_score)
        patch.setattr(Collector, "gauge", counting_gauge)
        result = run_scenario("partition", n_nodes=48, seed=7, collector=collector)
    return result, collector, calls


class TestOneJudgementARound:
    def test_core_score_is_computed_once_per_observed_round(self, partition_run):
        result, collector, calls = partition_run
        assert result.report.healed
        assert collector.rounds_observed > 80
        assert calls["core_score"] == collector.rounds_observed

    def test_recovery_judges_no_layer(self):
        assert not issubclass(recovery.RecoveryObserver, convergence.ConvergenceTracker)
        tree = ast.parse(inspect.getsource(recovery))
        called = {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
        }
        assert not called & PREDICATES

    def test_layers_converged_is_written_once_per_round(self, partition_run):
        _, collector, calls = partition_run
        assert calls["layers_converged"] == collector.rounds_observed

    def test_oracle_managers_are_computed_once_per_observed_round(self):
        # Every predicate reads the one snapshot the tracker gathers, so its
        # oracle is computed once; a predicate gathering its own would show.
        calls = []
        managers = convergence._oracle_managers

        def counting_managers(*args):
            calls.append(args)
            return managers(*args)

        deployment = Runtime(pair_assembly(), seed=31).deploy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(convergence, "_oracle_managers", counting_managers)
            deployment.run(6)
        assert len(calls) == len(deployment.tracker.rounds) == 6


class TestLayersConvergedHoldsNow:
    def test_gauge_drops_when_a_layer_stops_holding(self):
        # Outside any scenario too, the gauge counts the layers that hold
        # this round, not those that converged at some point.
        deployment = Runtime(pair_assembly(), seed=31).deploy()
        collector = attach_collector(deployment, Collector(gauge_every=0))
        assert deployment.run_until_converged(80).converged
        assert collector.gauge_value("layers_converged") == 5
        deployment.network.kill(min(deployment.role_map.member_ids("ring")))
        deployment.run(1)
        assert collector.gauge_value("layers_converged") < 5
        # The first-convergence record and its events are unchanged.
        assert all(first is not None for first in deployment.tracker.first_converged.values())
        assert len([e for e in collector.events if e.kind == "layer_converged"]) == 5


class TestWaitedLayers:
    def test_report_covers_only_the_layers_waited_for(self):
        deployment = Runtime(pair_assembly(), seed=32).deploy()
        report = deployment.run_until_converged(80, layers=("core", "uo1"))
        assert set(report.rounds) == {"core", "uo1"}
        assert report.converged
        assert report.executed == max(report.rounds.values())
        # Every layer was still judged every round.
        tracker = deployment.tracker
        assert all(len(held) == report.executed for held in tracker.series.values())

    def test_reset_keeps_the_series(self):
        deployment = Runtime(pair_assembly(), seed=33).deploy()
        deployment.run(4)
        deployment.tracker.reset()
        deployment.run(2)
        tracker = deployment.tracker
        assert tracker.rounds == [0, 1, 2, 3, 4, 5]
        assert len(tracker.core_scores) == 6
        assert tracker.report().executed == 2
