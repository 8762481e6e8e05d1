"""Tests for the k-regular ring and wheel shapes."""

from __future__ import annotations

import pytest

from repro.core import Runtime
from repro.dsl import TopologyBuilder
from repro.errors import TopologyError
from repro.shapes import make_shape


class TestKRegularRing:
    def test_k1_equals_plain_ring(self):
        kring = make_shape("kring", k=1)
        ring = make_shape("ring")
        for size in (2, 5, 12):
            for rank in range(size):
                assert kring.target_neighbors(rank, size) == ring.target_neighbors(
                    rank, size
                )

    def test_k2_neighborhood(self):
        kring = make_shape("kring", k=2)
        assert kring.target_neighbors(0, 10) == {1, 2, 8, 9}
        assert kring.degree(10) == 4

    def test_small_size_wraps_without_self(self):
        kring = make_shape("kring", k=3)
        neighbors = kring.target_neighbors(0, 4)
        assert 0 not in neighbors
        assert neighbors == {1, 2, 3}

    def test_invalid_k(self):
        with pytest.raises(TopologyError):
            make_shape("kring", k=0)

    def test_symmetric_everywhere(self):
        kring = make_shape("kring", k=3)
        size = 11
        for rank in range(size):
            for other in kring.target_neighbors(rank, size):
                assert rank in kring.target_neighbors(other, size)

    def test_converges_in_runtime(self):
        builder = TopologyBuilder("KRing")
        builder.component("backbone", "kring", size=24, k=2)
        deployment = Runtime(builder.nodes(24).build(), seed=61).deploy()
        report = deployment.run_until_converged(80)
        assert report.converged, report.rounds

    def test_survives_consecutive_failures(self):
        """The k-ring's selling point: 2k-1 consecutive crashes keep it
        connected, and the overlay re-tightens around the hole."""
        import networkx as nx

        from repro.analysis import realized_graph

        builder = TopologyBuilder("KRing")
        builder.component("backbone", "kring", size=30, k=2)
        deployment = Runtime(builder.nodes(30).build(), seed=62).deploy()
        assert deployment.run_until_converged(80).converged
        for victim in (3, 4, 5):  # 2k-1 consecutive ranks
            deployment.network.kill(victim)
        deployment.run(15)
        graph = realized_graph(deployment)
        assert nx.is_connected(graph)


class TestWheel:
    def test_hub_and_rim_targets(self):
        wheel = make_shape("wheel")
        assert wheel.target_neighbors(0, 6) == {1, 2, 3, 4, 5}
        assert wheel.target_neighbors(1, 6) == {0, 2, 5}  # hub + rim ring
        assert wheel.target_neighbors(3, 6) == {0, 2, 4}

    def test_tiny_wheels(self):
        wheel = make_shape("wheel")
        assert wheel.target_neighbors(0, 1) == frozenset()
        assert wheel.target_neighbors(0, 2) == {1}
        assert wheel.target_neighbors(1, 2) == {0}
        assert wheel.target_neighbors(1, 3) == {0, 2}

    def test_metric_prefers_hub_and_rim_neighbors(self):
        wheel = make_shape("wheel")
        metric = wheel.metric(8)
        hub = wheel.coordinate(0, 8)
        rim_1 = wheel.coordinate(1, 8)
        rim_2 = wheel.coordinate(2, 8)
        rim_4 = wheel.coordinate(4, 8)
        assert metric(rim_1, hub) == 1.0
        assert metric(rim_1, rim_2) == 1.0
        assert metric(rim_1, rim_4) > 1.0

    def test_view_size_covers_rim(self):
        assert make_shape("wheel").view_size(20, 8) >= 20

    def test_converges_in_runtime(self):
        builder = TopologyBuilder("Wheel")
        builder.component("broker", "wheel", size=16)
        deployment = Runtime(builder.nodes(16).build(), seed=63).deploy()
        report = deployment.run_until_converged(80)
        assert report.converged, report.rounds

    def test_hub_is_two_hop_shortcut(self):
        builder = TopologyBuilder("Wheel")
        builder.component("broker", "wheel", size=16)
        deployment = Runtime(builder.nodes(16).build(), seed=64).deploy()
        assert deployment.run_until_converged(80).converged
        members = deployment.role_map.member_ids("broker")
        # Opposite rim nodes both hold the hub (rank 0) in their core view,
        # so the hub is a 2-hop path between them.
        for rim in (members[1], members[8]):
            core = deployment.network.node(rim).protocol("core")
            assert members[0] in core.neighbors()
