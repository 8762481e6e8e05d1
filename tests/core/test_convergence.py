"""Tests for the per-layer convergence detectors."""

from __future__ import annotations

import pytest

from repro.core import Runtime
from repro.core.convergence import (
    ConvergenceReport,
    ConvergenceTracker,
    core_converged,
    core_score,
    port_connection_converged,
    port_selection_converged,
    uo1_converged,
    uo2_converged,
)
from repro.dsl import TopologyBuilder


def pair_assembly():
    builder = TopologyBuilder("Pair")
    builder.component("ring", "ring", size=12).port("gate", "lowest_id")
    builder.component("cell", "clique", size=6).port("gate", "lowest_id")
    builder.link(("ring", "gate"), ("cell", "gate"))
    return builder.nodes(18).build()


@pytest.fixture
def fresh_deployment():
    return Runtime(pair_assembly(), seed=31).deploy()


@pytest.fixture
def converged_deployment():
    deployment = Runtime(pair_assembly(), seed=31).deploy()
    report = deployment.run_until_converged(80)
    assert report.converged
    return deployment


class TestPredicatesBeforeAndAfter:
    def test_all_false_at_round_zero(self, fresh_deployment):
        deployment = fresh_deployment
        args = (deployment.network, deployment.role_map, deployment.assembly)
        assert not core_converged(*args)
        assert not uo1_converged(*args, deployment.config.uo1.view_size)
        assert not uo2_converged(*args)
        assert not port_connection_converged(*args)

    def test_all_true_after_convergence(self, converged_deployment):
        deployment = converged_deployment
        args = (deployment.network, deployment.role_map, deployment.assembly)
        assert core_converged(*args)
        assert uo1_converged(*args, deployment.config.uo1.view_size)
        assert uo2_converged(*args)
        assert port_selection_converged(*args)
        assert port_connection_converged(*args)

    def test_core_score_monotone_trend(self, fresh_deployment):
        deployment = fresh_deployment
        args = (deployment.network, deployment.role_map, deployment.assembly)
        start = core_score(*args)
        deployment.run(15)
        end = core_score(*args)
        assert 0.0 <= start <= end <= 1.0
        assert end == 1.0

    def test_core_score_zero_without_edges(self, fresh_deployment):
        deployment = fresh_deployment
        score = core_score(
            deployment.network, deployment.role_map, deployment.assembly
        )
        assert score < 0.5

    def test_killing_manager_breaks_port_selection(self, converged_deployment):
        deployment = converged_deployment
        manager = min(deployment.role_map.member_ids("ring"))
        deployment.network.kill(manager)
        args = (deployment.network, deployment.role_map, deployment.assembly)
        # The oracle moves to the next-lowest id; beliefs are now stale.
        assert not port_selection_converged(*args)
        deployment.run(12)
        assert port_selection_converged(*args)


class TestTracker:
    def test_records_first_convergence_rounds(self):
        deployment = Runtime(pair_assembly(), seed=32).deploy()
        report = deployment.run_until_converged(80)
        assert set(report.rounds) == set(ConvergenceTracker.ALL_LAYERS)
        assert all(1 <= value <= 80 for value in report.rounds.values())

    def test_reset_restarts_counting(self):
        deployment = Runtime(pair_assembly(), seed=33).deploy()
        deployment.run_until_converged(80)
        deployment.tracker.reset()
        report = deployment.tracker.report()
        assert all(value is None for value in report.rounds.values())
        report2 = deployment.run_until_converged(10)
        # Already converged: every layer reports round 1 after the reset.
        assert all(value == 1 for value in report2.rounds.values())

    def test_core_scores_recorded(self):
        deployment = Runtime(pair_assembly(), seed=34).deploy()
        deployment.run(5)
        assert len(deployment.tracker.core_scores) == 5

    def test_unknown_layer_rejected(self):
        deployment = Runtime(pair_assembly(), seed=35).deploy()
        with pytest.raises(ValueError):
            deployment.run_until_converged(1, layers=("core", "warp_drive"))
        assert deployment.engine.round == 0  # rejected before any round ran


class TestReport:
    def test_empty_report_not_converged(self):
        assert not ConvergenceReport().converged

    def test_partial_report_not_converged(self):
        report = ConvergenceReport(rounds={"core": 5, "uo1": None})
        assert not report.converged
        assert report.slowest is None
        assert report.round_of("core") == 5

    def test_full_report(self):
        report = ConvergenceReport(rounds={"core": 5, "uo1": 9}, executed=12)
        assert report.converged
        assert report.slowest == 9
