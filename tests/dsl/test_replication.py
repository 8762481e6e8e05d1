"""Tests for the component-replication sugar (``name[K]`` / ``name[*]``)."""

from __future__ import annotations

import pytest

from repro.errors import DslSemanticError, DslSyntaxError
from repro.dsl import compile_source, parse_source

MONGO = """
topology Mongo {
    nodes 80
    component router : star(size = 8) { port hub : hub }
    component shard[4] : clique(size = 18) { port head : lowest_id }
    link router.hub -- shard[*].head
}
"""


class TestParsing:
    def test_replica_count_parsed(self):
        tree = parse_source(MONGO)
        shard = tree.components[1]
        assert shard.replicas == 4

    def test_plain_component_has_no_replicas(self):
        tree = parse_source(MONGO)
        assert tree.components[0].replicas is None

    def test_star_index_parsed(self):
        tree = parse_source(MONGO)
        link = tree.links[0]
        assert link.a_index is None
        assert link.b_index == "*"

    def test_numeric_index_parsed(self):
        tree = parse_source(
            "topology T { component a[2] : ring { port p : hub } "
            "component b : ring { port q : hub } link a[1].p -- b.q }"
        )
        assert tree.links[0].a_index == 1

    def test_zero_replicas_rejected(self):
        with pytest.raises(DslSyntaxError, match="replica count"):
            parse_source("topology T { component a[0] : ring }")

    def test_bad_index_token(self):
        with pytest.raises(DslSyntaxError, match="replica index"):
            parse_source(
                "topology T { component a[2] : ring { port p : hub } "
                "component b : ring { port q : hub } link a[x].p -- b.q }"
            )


class TestExpansion:
    def test_replicas_expand_to_numbered_components(self):
        assembly = compile_source(MONGO)
        assert sorted(assembly.components) == [
            "router",
            "shard0",
            "shard1",
            "shard2",
            "shard3",
        ]
        for index in range(4):
            spec = assembly.component(f"shard{index}")
            assert spec.size == 18
            assert spec.has_port("head")

    def test_star_fan_out_creates_one_link_per_replica(self):
        assembly = compile_source(MONGO)
        assert len(assembly.links) == 4
        linked = {ref.component for link in assembly.links_of("router") for ref in link.endpoints()}
        assert linked == {
            "router",
            "shard0",
            "shard1",
            "shard2",
            "shard3",
        }

    def test_specific_index_link(self):
        assembly = compile_source(
            "topology T { component a[3] : ring(size = 4) { port p : hub } "
            "component b : ring(size = 4) { port q : hub } "
            "link a[2].p -- b.q }"
        )
        assert len(assembly.links) == 1
        linked = {ref.component for link in assembly.links_of("b") for ref in link.endpoints()}
        assert linked == {"b", "a2"}

    def test_chain_links_between_replicas(self):
        assembly = compile_source(
            "topology T { component seg[3] : ring(size = 4) "
            "{ port w : rank(0) port e : rank(2) } "
            "link seg[0].e -- seg[1].w "
            "link seg[1].e -- seg[2].w }"
        )
        linked = {ref.component for link in assembly.links_of("seg1") for ref in link.endpoints()}
        assert linked == {"seg1", "seg0", "seg2"}


class TestSemanticErrors:
    def test_unindexed_reference_to_replicated_component(self):
        with pytest.raises(DslSemanticError, match="replicated"):
            compile_source(
                "topology T { component a[2] : ring { port p : hub } "
                "component b : ring { port q : hub } link a.p -- b.q }"
            )

    def test_index_out_of_range(self):
        with pytest.raises(DslSemanticError, match="out of range"):
            compile_source(
                "topology T { component a[2] : ring { port p : hub } "
                "component b : ring { port q : hub } link a[5].p -- b.q }"
            )

    def test_index_on_plain_component(self):
        with pytest.raises(DslSemanticError, match="not replicated"):
            compile_source(
                "topology T { component a : ring { port p : hub } "
                "component b : ring { port q : hub } link a[0].p -- b.q }"
            )

    def test_double_fan_out_rejected(self):
        with pytest.raises(DslSemanticError, match="one side"):
            compile_source(
                "topology T { component a[2] : ring { port p : hub } "
                "component b[2] : ring { port q : hub } "
                "link a[*].p -- b[*].q }"
            )


class TestBuilderReplication:
    def test_replicate_matches_dsl_sugar(self):
        from repro.dsl import TopologyBuilder

        builder = TopologyBuilder("Mongo")
        builder.component("router", "star", size=8).port("hub", "hub")
        shards = builder.replicate(
            "shard", 4, "clique", size=18, ports={"head": "lowest_id"}
        )
        for name in shards:
            builder.link(("router", "hub"), (name, "head"))
        from_builder = builder.nodes(80).build()
        assert from_builder == compile_source(MONGO)

    def test_replicate_returns_names(self):
        from repro.dsl import TopologyBuilder

        builder = TopologyBuilder("T")
        names = builder.replicate("w", 3, "ring", size=4)
        assert names == ["w0", "w1", "w2"]

    def test_replicate_count_validation(self):
        from repro.errors import AssemblyError
        from repro.dsl import TopologyBuilder

        with pytest.raises(AssemblyError):
            TopologyBuilder("T").replicate("w", 0, "ring")


class TestDeployment:
    def test_replicated_cluster_converges(self):
        from repro.core import Runtime

        assembly = compile_source(MONGO)
        report = Runtime(assembly, seed=5).deploy().run_until_converged(80)
        assert report.converged, report.rounds

    def test_round_trip_through_expanded_form(self):
        """to_source prints the expanded form, which reparses equal."""
        from repro.dsl import to_source

        assembly = compile_source(MONGO)
        assert compile_source(to_source(assembly)) == assembly
