"""Tests for realized-topology analysis and export."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.analysis import (
    component_subgraph,
    realized_graph,
    shape_accuracy,
    to_dot,
    to_edge_list,
    topology_summary,
)
from repro.core import Runtime
from repro.experiments.topologies import star_of_cliques


@pytest.fixture(scope="module")
def mongo():
    deployment = Runtime(star_of_cliques(3, 10, 6), seed=8).deploy()
    assert deployment.run_until_converged(80).converged
    return deployment


class TestRealizedGraph:
    def test_nodes_carry_roles(self, mongo):
        graph = realized_graph(mongo)
        assert graph.number_of_nodes() == 36
        hub = mongo.role_map.members("router")[0][0]
        assert graph.nodes[hub]["component"] == "router"
        assert graph.nodes[hub]["rank"] == 0

    def test_converged_topology_is_connected(self, mongo):
        assert nx.is_connected(realized_graph(mongo))

    def test_link_edges_flagged(self, mongo):
        graph = realized_graph(mongo)
        links = [
            (a, b)
            for a, b, data in graph.edges(data=True)
            if data.get("kind") == "link"
        ]
        assert len(links) == 3

    def test_without_links_components_are_islands(self, mongo):
        graph = realized_graph(mongo, include_links=False)
        assert nx.number_connected_components(graph) == 4

    def test_dead_nodes_excluded(self, mongo):
        victim = mongo.role_map.member_ids("shard0")[3]
        mongo.network.kill(victim)
        try:
            graph = realized_graph(mongo)
            assert victim not in graph
        finally:
            mongo.network.revive(victim)


class TestComponentMetrics:
    def test_component_subgraph(self, mongo):
        sub = component_subgraph(mongo, "shard1")
        assert sub.number_of_nodes() == 10
        # converged clique: complete graph
        assert sub.number_of_edges() == 45

    def test_shape_accuracy_converged(self, mongo):
        for name in mongo.assembly.components:
            assert shape_accuracy(mongo, name) == 1.0

    def test_shape_accuracy_detects_damage(self, mongo):
        members = mongo.role_map.member_ids("shard2")
        victim = members[5]
        mongo.network.kill(victim)
        try:
            assert shape_accuracy(mongo, "shard2") < 1.0
        finally:
            mongo.network.revive(victim)

    def test_degree_histogram(self, mongo):
        degrees = dict(realized_graph(mongo, "core", include_links=False).degree())
        assert len(degrees) == 36
        assert 9 in degrees.values()  # clique members know their 9 peers


class TestSummary:
    def test_summary_keys(self, mongo):
        summary = topology_summary(mongo)
        assert summary["connected"] is True
        assert summary["links"] == 3
        assert summary["n_nodes"] == 36
        assert summary["diameter"] >= 2
        assert set(summary["accuracy"]) == set(mongo.assembly.components)
        assert all(value == 1.0 for value in summary["accuracy"].values())


class TestExport:
    def test_dot_structure(self, mongo):
        dot = to_dot(mongo)
        assert dot.startswith('graph "StarOfCliques"')
        assert dot.rstrip().endswith("}")
        assert dot.count("fillcolor") == 36
        assert "penwidth=3" in dot  # the realized links stand out

    def test_edge_list(self, mongo):
        text = to_edge_list(mongo)
        lines = [line for line in text.splitlines() if line]
        graph = realized_graph(mongo)
        assert len(lines) == graph.number_of_edges()
        kinds = {line.split()[2] for line in lines}
        assert kinds == {"overlay", "link"}
