"""Tests for runtime deployment, convergence reports, and bandwidth splits."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.core import Runtime
from repro.core.layers import RUNTIME_LAYERS
from repro.core.roles import SPARE_COMPONENT
from repro.dsl import TopologyBuilder


def pair_assembly(ring=16, cell=8):
    builder = TopologyBuilder("Pair")
    builder.component("ring", "ring", size=ring).port("gate", "lowest_id")
    builder.component("cell", "clique", size=cell).port("gate", "lowest_id")
    builder.link(("ring", "gate"), ("cell", "gate"))
    return builder.nodes(ring + cell).build()


class TestRuntimeConfig:
    def test_defaults_valid(self):
        assert Runtime(pair_assembly()).core_flavor == "vicinity"

    def test_bad_flavor(self):
        with pytest.raises(ConfigurationError):
            Runtime(pair_assembly(), core_flavor="chord")


class TestDeploy:
    def test_uses_assembly_total_nodes(self):
        deployment = Runtime(pair_assembly(), seed=1).deploy()
        assert deployment.network.size() == 24

    def test_explicit_node_count_overrides(self):
        deployment = Runtime(pair_assembly(), seed=1).deploy(30)
        assert deployment.network.size() == 30

    def test_missing_node_count_raises(self):
        builder = TopologyBuilder("NoNodes")
        builder.component("a", "ring", size=4)
        assembly = builder.build()
        with pytest.raises(ConfigurationError):
            Runtime(assembly, seed=1).deploy()

    def test_too_few_nodes_raises(self):
        with pytest.raises(ConfigurationError):
            Runtime(pair_assembly(), seed=1).deploy(10)

    def test_full_stack_installed(self):
        deployment = Runtime(pair_assembly(), seed=1).deploy()
        for node in deployment.network.nodes():
            assert [name for name, _ in node.stack()] == list(RUNTIME_LAYERS)

    def test_surplus_nodes_become_spares(self):
        deployment = Runtime(pair_assembly(), seed=1).deploy(30)
        spares = [
            node_id
            for node_id in deployment.network.node_ids()
            if deployment.role_map.role(node_id).is_spare
        ]
        assert len(spares) == 6
        assert deployment.role_map.component_size(SPARE_COMPONENT) == 6

    def test_roles_recorded_on_nodes(self):
        deployment = Runtime(pair_assembly(), seed=1).deploy()
        for node in deployment.network.nodes():
            assert node.attributes["role"] == deployment.role_map.role(node.node_id)


class TestConvergenceRuns:
    def test_run_until_converged(self):
        deployment = Runtime(pair_assembly(), seed=2).deploy()
        report = deployment.run_until_converged(max_rounds=80)
        assert report.converged
        assert report.slowest is not None
        assert all(value is not None for value in report.rounds.values())
        assert report.executed <= 80

    def test_convergence_with_spares_present(self):
        deployment = Runtime(pair_assembly(), seed=3).deploy(30)
        report = deployment.run_until_converged(max_rounds=80)
        assert report.converged

    def test_budget_exhaustion_reports_failure(self):
        deployment = Runtime(pair_assembly(), seed=2).deploy()
        report = deployment.run_until_converged(max_rounds=1)
        assert not report.converged
        assert report.slowest is None

    def test_budget_exhaustion_can_raise(self):
        from repro.errors import ConvergenceTimeout

        deployment = Runtime(pair_assembly(), seed=2).deploy()
        with pytest.raises(ConvergenceTimeout, match="core"):
            deployment.run_until_converged(max_rounds=1, raise_on_timeout=True)

    def test_run_fixed_rounds_ignores_convergence(self):
        deployment = Runtime(pair_assembly(), seed=2).deploy()
        executed = deployment.run(40)
        assert executed == 40

    def test_determinism_across_deployments(self):
        first = Runtime(pair_assembly(), seed=9).deploy()
        second = Runtime(pair_assembly(), seed=9).deploy()
        report_a = first.run_until_converged(60)
        report_b = second.run_until_converged(60)
        assert report_a.rounds == report_b.rounds

    def test_different_seeds_can_differ(self):
        reports = set()
        for seed in range(4):
            deployment = Runtime(pair_assembly(), seed=seed).deploy()
            reports.add(tuple(sorted(deployment.run_until_converged(60).rounds.items())))
        assert len(reports) > 1


class TestBandwidthSplit:
    def test_split_covers_all_layers(self):
        deployment = Runtime(pair_assembly(), seed=4).deploy()
        deployment.run(10)
        split = deployment.bandwidth_split(10)
        assert len(split["baseline"]) == 10
        assert len(split["overhead"]) == 10
        assert sum(split["baseline"]) > 0
        assert sum(split["overhead"]) > 0
        total = deployment.transport.total_bytes()
        assert sum(split["baseline"]) + sum(split["overhead"]) == total


class TestRebalance:
    def test_rebalance_after_crash_refills_ranks(self):
        deployment = Runtime(pair_assembly(), seed=5).deploy(30)  # 6 spares
        deployment.run(20)
        victims = deployment.role_map.member_ids("cell")[:3]
        for victim in victims:
            deployment.network.kill(victim)
        deployment.rebalance()
        # The clique must be back to its declared size, using spares.
        assert deployment.role_map.component_size("cell") == 8
        live_members = [
            node_id
            for node_id in deployment.role_map.member_ids("cell")
            if deployment.network.is_alive(node_id)
        ]
        assert len(live_members) == 8

    def test_rebalance_then_reconverge(self):
        deployment = Runtime(pair_assembly(), seed=6).deploy(30)
        deployment.run_until_converged(60)
        victims = deployment.role_map.member_ids("ring")[:4]
        for victim in victims:
            deployment.network.kill(victim)
        deployment.rebalance()
        deployment.tracker.reset()
        report = deployment.run_until_converged(80)
        assert report.converged

    def test_provisioner_installs_spare_stack(self):
        deployment = Runtime(pair_assembly(), seed=7).deploy()
        provision = deployment.provisioner()
        node = deployment.network.create_node()
        provision(deployment.network, node)
        assert [name for name, _ in node.stack()] == list(RUNTIME_LAYERS)
        assert node.attributes["role"].is_spare
