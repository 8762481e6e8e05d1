"""Tests for component specs, links, and assembly validation."""

from __future__ import annotations

import pytest

from repro.errors import AssemblyError
from repro.core.assembly import Assembly
from repro.core.component import ComponentSpec
from repro.core.link import LinkSpec, PortRef
from repro.core.port import PortSpec, make_selector
from repro.shapes import make_shape


def ring_component(name="ring", **kwargs):
    return ComponentSpec(name=name, shape=make_shape("ring"), **kwargs)


class TestComponentSpec:
    def test_name_validation(self):
        with pytest.raises(AssemblyError):
            ComponentSpec(name="9bad", shape=make_shape("ring"))

    def test_weight_validation(self):
        with pytest.raises(AssemblyError):
            ring_component(weight=0)
        ring_component(weight=0.5)

    def test_size_validation(self):
        with pytest.raises(AssemblyError):
            ring_component(size=0)
        assert ring_component(size=3).size == 3

    def test_fixed_size_ignores_weight_constraint(self):
        # weight is irrelevant when size is fixed; zero weight allowed then.
        spec = ring_component(size=4, weight=0)
        assert spec.size == 4

    def test_duplicate_ports_rejected(self):
        with pytest.raises(AssemblyError, match="duplicate port"):
            ring_component(ports=(PortSpec("p"), PortSpec("p")))

    def test_port_lookup(self):
        spec = ring_component(ports=(PortSpec("a"), PortSpec("b")))
        assert spec.port("a").name == "a"
        assert spec.has_port("b")
        assert not spec.has_port("c")
        with pytest.raises(AssemblyError):
            spec.port("c")
        assert set(spec.port_map()) == {"a", "b"}


class TestPortRef:
    def test_parse(self):
        ref = PortRef.parse(" ring.gate ")
        assert ref == PortRef("ring", "gate")
        assert str(ref) == "ring.gate"

    def test_parse_rejects_bad_forms(self):
        for bad in ("ring", "ring.", ".gate", "a.b.c", ""):
            with pytest.raises(AssemblyError):
                PortRef.parse(bad)

    def test_empty_fields_rejected(self):
        with pytest.raises(AssemblyError):
            PortRef("", "p")


class TestLinkSpec:
    def test_canonical_order(self):
        forward = LinkSpec(PortRef("a", "p"), PortRef("b", "q"))
        backward = LinkSpec(PortRef("b", "q"), PortRef("a", "p"))
        assert forward == backward
        assert forward.a == PortRef("a", "p")

    def test_self_link_rejected(self):
        with pytest.raises(AssemblyError):
            LinkSpec(PortRef("a", "p"), PortRef("a", "p"))

    def test_same_component_different_ports_allowed(self):
        link = LinkSpec(PortRef("a", "p"), PortRef("a", "q"))
        assert link.touches("a")

    def test_other_endpoint(self):
        link = LinkSpec(PortRef("a", "p"), PortRef("b", "q"))
        assert link.other(PortRef("a", "p")) == PortRef("b", "q")
        assert link.other(PortRef("b", "q")) == PortRef("a", "p")
        with pytest.raises(AssemblyError):
            link.other(PortRef("c", "r"))

    def test_touches(self):
        link = LinkSpec(PortRef("a", "p"), PortRef("b", "q"))
        assert link.touches("a") and link.touches("b")
        assert not link.touches("c")


class TestAssembly:
    def build_pair(self, links=()):
        return Assembly(
            "Pair",
            [
                ring_component("left", ports=(PortSpec("gate"),)),
                ring_component("right", ports=(PortSpec("gate"),)),
            ],
            links=links,
        )

    def test_requires_components(self):
        with pytest.raises(AssemblyError):
            Assembly("Empty", [])

    def test_duplicate_component_names(self):
        with pytest.raises(AssemblyError, match="duplicate component"):
            Assembly("Dup", [ring_component("x"), ring_component("x")])

    def test_duplicate_links_rejected(self):
        link = LinkSpec(PortRef("left", "gate"), PortRef("right", "gate"))
        reversed_link = LinkSpec(PortRef("right", "gate"), PortRef("left", "gate"))
        with pytest.raises(AssemblyError, match="duplicate link"):
            self.build_pair(links=[link, reversed_link])

    def test_link_to_unknown_component(self):
        with pytest.raises(AssemblyError, match="unknown component"):
            self.build_pair(
                links=[LinkSpec(PortRef("left", "gate"), PortRef("ghost", "gate"))]
            )

    def test_link_to_unknown_port(self):
        with pytest.raises(AssemblyError, match="unknown port"):
            self.build_pair(
                links=[LinkSpec(PortRef("left", "gate"), PortRef("right", "door"))]
            )

    def test_total_nodes_minimum(self):
        with pytest.raises(AssemblyError, match="at least"):
            Assembly("Tiny", [ring_component("a", size=10)], total_nodes=5)

    def test_min_nodes(self):
        assembly = Assembly(
            "M", [ring_component("a", size=10), ring_component("b")]
        )
        assert assembly.min_nodes() == 11

    def test_lookups(self):
        link = LinkSpec(PortRef("left", "gate"), PortRef("right", "gate"))
        assembly = self.build_pair(links=[link])
        assert assembly.component("left").name == "left"
        with pytest.raises(AssemblyError):
            assembly.component("ghost")
        assert assembly.links_of("left") == [link]
        linked = {ref.component for link in assembly.links_of("left") for ref in link.endpoints()}
        assert linked == {"left", "right"}
        assert assembly.port(PortRef("left", "gate")).name == "gate"

    def test_equality(self):
        assert self.build_pair() == self.build_pair()
        assert self.build_pair() != Assembly("Other", [ring_component("x")])
