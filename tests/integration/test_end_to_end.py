"""End-to-end scenarios across the whole stack (DSL → runtime → metrics)."""

from __future__ import annotations

import pytest

from repro import Runtime, RuntimeConfig, compile_source, to_source
from repro.core.convergence import core_score
from repro.faults.schedule import catastrophic_failure, random_churn


MONGO_DSL = """
topology Mongo {
    nodes 56
    assign proportional
    component router : star(size = 8) { port hub : hub }
    component shard0 : clique(size = 12) { port head : lowest_id }
    component shard1 : clique(size = 12) { port head : lowest_id }
    component shard2 : clique(size = 12) { port head : lowest_id }
    component shard3 : clique(size = 12) { port head : lowest_id }
    link router.hub -- shard0.head
    link router.hub -- shard1.head
    link router.hub -- shard2.head
    link router.hub -- shard3.head
}
"""


class TestDslToDeployment:
    def test_full_pipeline(self):
        assembly = compile_source(MONGO_DSL)
        deployment = Runtime(assembly, seed=1).deploy()
        report = deployment.run_until_converged(80)
        assert report.converged
        # Round-trip through text and redeploy: same convergence profile.
        again = compile_source(to_source(assembly))
        deployment2 = Runtime(again, seed=1).deploy()
        report2 = deployment2.run_until_converged(80)
        assert report.rounds == report2.rounds

    def test_hub_links_all_shards(self):
        assembly = compile_source(MONGO_DSL)
        deployment = Runtime(assembly, seed=2).deploy()
        deployment.run_until_converged(80)
        hub = deployment.role_map.members("router")[0][0]
        connection = deployment.network.node(hub).protocol("port_connection")
        remote_managers = set(connection.neighbors())
        heads = {
            min(deployment.role_map.member_ids(f"shard{i}")) for i in range(4)
        }
        assert remote_managers == heads


class TestChurnIntegration:
    def test_converges_under_continuous_churn(self):
        assembly = compile_source(MONGO_DSL)
        deployment = Runtime(assembly, seed=3).deploy()
        random_churn(
            deployment,
            deployment.streams.fork("churn").stream("crash"),
            crash_rate=0.005,
            join_count=1,
            min_population=40,
            at_round=0,
            until_round=100,
        ).arm(deployment)
        deployment.tracker.reset()
        report = deployment.run_until_converged(100, layers=("core", "uo1", "uo2"))
        assert report.converged, report.rounds

    def test_recovery_after_catastrophe(self):
        assembly = compile_source(MONGO_DSL)
        deployment = Runtime(assembly, seed=4).deploy(70)  # 14 spares
        deployment.run_until_converged(80)
        catastrophic_failure(
            deployment,
            deployment.streams.fork("kill").stream("k"),
            at_round=deployment.engine.round,
            fraction=0.4,
        ).arm(deployment)
        deployment.run(1)
        deployment.rebalance()
        damaged = core_score(
            deployment.network, deployment.role_map, deployment.assembly
        )
        deployment.run(40)
        healed = core_score(
            deployment.network, deployment.role_map, deployment.assembly
        )
        assert healed == 1.0
        assert healed >= damaged

    def test_dead_manager_link_heals(self):
        assembly = compile_source(MONGO_DSL)
        deployment = Runtime(assembly, seed=5).deploy()
        deployment.run_until_converged(80)
        # Kill shard0's head (its lowest id member).
        head = min(deployment.role_map.member_ids("shard0"))
        deployment.network.kill(head)
        deployment.tracker.reset()
        report = deployment.run_until_converged(60)
        assert report.converged
        new_head = min(
            node_id
            for node_id in deployment.role_map.member_ids("shard0")
            if deployment.network.is_alive(node_id)
        )
        hub = deployment.role_map.members("router")[0][0]
        connection = deployment.network.node(hub).protocol("port_connection")
        assert new_head in connection.neighbors()


class TestScaleUpDownIntegration:
    def test_grow_population_with_spares_then_rebalance(self):
        assembly = compile_source(MONGO_DSL)
        deployment = Runtime(assembly, seed=6).deploy()
        deployment.run_until_converged(80)
        provision = deployment.provisioner()
        for _ in range(8):
            node = deployment.network.create_node()
            provision(deployment.network, node)
        deployment.run(5)
        # Kill four router members; rebalance should pull spares in.
        victims = deployment.role_map.member_ids("router")[:4]
        for victim in victims:
            deployment.network.kill(victim)
        deployment.rebalance()
        live_router = [
            node_id
            for node_id in deployment.role_map.member_ids("router")
            if deployment.network.is_alive(node_id)
        ]
        assert len(live_router) == 8
        deployment.tracker.reset()
        assert deployment.run_until_converged(80).converged

    def test_reconfigure_into_bigger_shard_count(self):
        assembly = compile_source(MONGO_DSL)
        deployment = Runtime(assembly, seed=7).deploy()
        deployment.run_until_converged(80)
        bigger = compile_source(
            MONGO_DSL.replace("nodes 56", "nodes 56").replace(
                "component shard3 : clique(size = 12) { port head : lowest_id }",
                "component shard3 : clique(size = 6) { port head : lowest_id }\n"
                "    component shard4 : clique(size = 6) { port head : lowest_id }",
            ).replace(
                "link router.hub -- shard3.head",
                "link router.hub -- shard3.head\n    link router.hub -- shard4.head",
            )
        )
        deployment.rebalance(bigger)
        report = deployment.run_until_converged(100)
        assert report.converged, report.rounds
        assert deployment.role_map.component_size("shard4") == 6
