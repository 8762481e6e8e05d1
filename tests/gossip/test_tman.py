"""Tests for the T-Man overlay-construction protocol."""

from __future__ import annotations

import pytest

from repro.gossip.selection import Proximity
from repro.gossip.tman import TMan
from repro.shapes import make_shape
from tests.gossip.helpers import GossipWorld


def line_world(n, seed=1):
    shape = make_shape("line")
    proximity = Proximity(shape.metric(n))

    def extra(node, index):
        node.attach(
            "tman",
            TMan(
                node.node_id,
                profile=index,
                proximity=proximity,
                layer="tman",
                target_degree=2,
            ),
        )

    world = GossipWorld(n, seed=seed, extra=extra)
    world.shape = shape
    return world


def line_converged(world, n):
    adjacency = {
        index: list(world.nodes[index].protocol("tman").neighbors())
        for index in range(n)
        if world.network.is_alive(index)
    }
    return world.shape.converged(adjacency, n)


class TestConvergence:
    def test_line_converges(self):
        n = 32
        world = line_world(n, seed=2)
        for _round in range(40):
            world.run(1)
            if line_converged(world, n):
                break
        else:
            pytest.fail("T-Man line did not converge in 40 rounds")

    def test_endpoints_have_single_neighbor_target(self):
        n = 24
        world = line_world(n, seed=3)
        world.run(25)
        first = world.nodes[0].protocol("tman").neighbors()
        assert 1 in first


class TestRobustness:
    def test_dead_peers_dropped_from_view(self):
        n = 24
        world = line_world(n, seed=5)
        world.run(15)
        world.network.kill(5)
        world.run(10)
        for index in range(n):
            if not world.network.is_alive(index):
                continue
            protocol = world.nodes[index].protocol("tman")
            # Dead nodes may linger in deep view slots but never among the
            # exposed (target-degree) neighbours after the healing window.
            assert 5 not in protocol.neighbors() or index in (4, 6)

    def test_set_profile_flushes_and_reconverges(self):
        n = 16
        world = line_world(n, seed=6)
        world.run(15)
        protocol = world.nodes[0].protocol("tman")
        protocol.set_profile(8)
        world.run(10)
        assert set(protocol.neighbors()) & {7, 8, 9}

    def test_forget(self):
        world = line_world(16, seed=7)
        world.run(10)
        protocol = world.nodes[3].protocol("tman")
        victim = protocol.view.ids()[0]
        protocol.forget(victim)
        assert victim not in protocol.view.ids()


class TestAccounting:
    def test_bandwidth_recorded(self):
        world = line_world(12, seed=8)
        world.run(3)
        assert world.transport.total_bytes("tman") > 0
