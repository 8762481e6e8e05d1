"""Tests for the predefined complex assemblies (experiment i)."""

from __future__ import annotations

import pytest

from repro.core import Runtime
from repro.experiments.topologies import (
    grid_of_rings,
    iot_composite,
    line_of_stars,
    ring_of_rings,
    star_of_cliques,
)


class TestStarOfCliques:
    def test_structure(self):
        assembly = star_of_cliques(n_shards=3, shard_size=10, router_size=6)
        assert set(assembly.components) == {"router", "shard0", "shard1", "shard2"}
        assert assembly.total_nodes == 36
        assert len(assembly.links) == 3
        linked = {ref.component for link in assembly.links_of("router") for ref in link.endpoints()}
        assert linked == {"router", "shard0", "shard1", "shard2"}

    def test_router_is_star_shards_are_cliques(self):
        assembly = star_of_cliques()
        assert assembly.component("router").shape.name == "star"
        assert assembly.component("shard0").shape.name == "clique"


class TestRingOfRings:
    def test_structure(self):
        assembly = ring_of_rings(n_rings=5, ring_size=8)
        assert len(assembly.components) == 5
        assert len(assembly.links) == 5
        # super-ring: each ring links to exactly two neighbours
        linked = {ref.component for link in assembly.links_of("ring0") for ref in link.endpoints()}
        assert linked == {"ring0", "ring1", "ring4"}

    def test_single_ring_has_no_links(self):
        assembly = ring_of_rings(n_rings=1, ring_size=8)
        assert assembly.links == []

    def test_east_west_ports(self):
        assembly = ring_of_rings(n_rings=3, ring_size=10)
        spec = assembly.component("ring0")
        assert spec.has_port("west") and spec.has_port("east")


class TestGridOfRings:
    def test_mesh_links(self):
        assembly = grid_of_rings(rows=2, cols=3, ring_size=6)
        assert len(assembly.components) == 6
        # 2x3 mesh: horizontal 2*2 + vertical 3*1 = 7 links
        assert len(assembly.links) == 7
        linked = {ref.component for link in assembly.links_of("dc_0_0") for ref in link.endpoints()}
        assert linked == {"dc_0_0", "dc_0_1", "dc_1_0"}


class TestLineOfStars:
    def test_chain(self):
        assembly = line_of_stars(n_stages=4, stage_size=6)
        assert len(assembly.links) == 3
        linked = {ref.component for link in assembly.links_of("stage1") for ref in link.endpoints()}
        assert linked == {"stage1", "stage0", "stage2"}


class TestIotComposite:
    def test_heterogeneous_shapes(self):
        assembly = iot_composite()
        shapes = {
            name: spec.shape.name for name, spec in assembly.components.items()
        }
        assert shapes == {
            "sensors": "random",
            "aggregation": "tree",
            "storage": "ring",
            "gateway": "clique",
        }
        assert len(assembly.links) == 3


@pytest.mark.parametrize(
    "factory,kwargs",
    [
        (star_of_cliques, dict(n_shards=2, shard_size=8, router_size=6)),
        (ring_of_rings, dict(n_rings=4, ring_size=8)),
        (grid_of_rings, dict(rows=2, cols=2, ring_size=6)),
        (line_of_stars, dict(n_stages=3, stage_size=6)),
        (iot_composite, dict(n_sensors=12, tree_size=7, storage_size=8, gateway_size=4)),
    ],
)
def test_every_topology_deploys_and_converges(factory, kwargs):
    """Experiment (i): each real-world-like assembly actually converges."""
    assembly = factory(**kwargs)
    deployment = Runtime(assembly, seed=13).deploy()
    report = deployment.run_until_converged(max_rounds=100)
    assert report.converged, f"{assembly.name}: {report.rounds}"
