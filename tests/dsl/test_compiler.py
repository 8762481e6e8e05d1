"""Tests for the DSL compiler (AST → Assembly) and pretty-printer."""

from __future__ import annotations

import pytest

from repro.errors import DslSemanticError
from repro.core.link import PortRef
from repro.core.port import RankSelector
from repro.core.roles import HashAssignment
from repro.dsl import compile_source, to_source

MONGO = """
topology Mongo {
    nodes 56
    assign proportional
    component router : star(size = 8) {
        port hub : hub
    }
    component shard0 : clique(size = 12) { port head : lowest_id }
    component shard1 : clique(size = 12) { port head : lowest_id }
    link router.hub -- shard0.head
    link router.hub -- shard1.head
}
"""


class TestCompilation:
    def test_components_compiled(self):
        assembly = compile_source(MONGO)
        assert set(assembly.components) == {"router", "shard0", "shard1"}
        assert assembly.component("router").shape.name == "star"
        assert assembly.component("router").size == 8

    def test_ports_and_selectors(self):
        assembly = compile_source(MONGO)
        hub = assembly.component("router").port("hub")
        assert isinstance(hub.selector, RankSelector)
        assert hub.selector.rank == 0

    def test_links(self):
        assembly = compile_source(MONGO)
        assert len(assembly.links) == 2
        linked = {ref.component for link in assembly.links_of("router") for ref in link.endpoints()}
        assert linked == {"router", "shard0", "shard1"}

    def test_nodes_and_assignment(self):
        assembly = compile_source(MONGO)
        assert assembly.total_nodes == 56
        assert assembly.assignment.name == "proportional"

    def test_weight_param(self):
        assembly = compile_source(
            "topology W { component a : ring(weight = 2.5) component b : ring }"
        )
        assert assembly.component("a").weight == 2.5

    def test_shape_params_forwarded(self):
        assembly = compile_source(
            "topology G { component g : grid(size = 12, rows = 3) }"
        )
        assert assembly.component("g").shape.rows == 3

    def test_hash_assignment(self):
        assembly = compile_source("topology H { assign hash component a : ring }")
        assert isinstance(assembly.assignment, HashAssignment)


class TestSemanticErrors:
    @pytest.mark.parametrize(
        "source,fragment",
        [
            ("topology T { component a : dodecahedron }", "unknown shape"),
            ("topology T { component a : ring(size = 2.5) }", "size must be an integer"),
            ("topology T { component a : ring(weight = true) }", "weight must be numeric"),
            ("topology T { component a : ring(bogus = 1) }", "bad parameters"),
            (
                "topology T { component a : ring { port p : president } }",
                "unknown port selector",
            ),
            ("topology T { assign alphabetical component a : ring }", "unknown assignment"),
            (
                "topology T { component a : ring link a.p -- a.q }",
                "unknown port",
            ),
            (
                "topology T { component a : ring { port p : hub } link a.p -- b.q }",
                "unknown component",
            ),
            (
                "topology T { nodes 2 component a : ring(size = 5) }",
                "at least",
            ),
            (
                "topology T { component a : ring component a : ring }",
                "duplicate component",
            ),
        ],
    )
    def test_semantic_errors(self, source, fragment):
        with pytest.raises(DslSemanticError, match=fragment):
            compile_source(source)

    def test_error_mentions_location(self):
        source = "topology T {\n  component a : dodecahedron\n}"
        with pytest.raises(DslSemanticError, match="line 2"):
            compile_source(source)


class TestPrettyPrinter:
    def test_round_trip_equality(self):
        assembly = compile_source(MONGO)
        again = compile_source(to_source(assembly))
        assert assembly == again

    def test_output_contains_all_clauses(self):
        text = to_source(compile_source(MONGO))
        assert "nodes 56" in text
        assert "assign proportional" in text
        assert "component router : star(size = 8)" in text
        assert "port hub : rank(0)" in text
        assert "link router.hub -- shard0.head" in text

    def test_weight_printed_when_not_default(self):
        assembly = compile_source(
            "topology W { component a : ring(weight = 2.5) component b : ring }"
        )
        text = to_source(assembly)
        assert "weight = 2.5" in text
        assert compile_source(text) == assembly

    def test_shape_params_printed(self):
        assembly = compile_source("topology G { component g : torus(rows = 2) }")
        text = to_source(assembly)
        assert "rows = 2" in text
        assert compile_source(text) == assembly
