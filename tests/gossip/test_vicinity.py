"""Tests for the Vicinity overlay-construction protocol."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.gossip.selection import FilteredProximity, Proximity
from repro.gossip.vicinity import Vicinity
from repro.shapes import make_shape
from repro.sim.protocol import Protocol
from tests.gossip.helpers import GossipWorld


def ring_world(n, seed=1, view_size=8, target_degree=2, random_layer="peer_sampling"):
    shape = make_shape("ring")
    proximity = Proximity(shape.metric(n))

    def extra(node, index):
        node.attach(
            "ring",
            Vicinity(
                node.node_id,
                profile=index,
                proximity=proximity,
                layer="ring",
                random_layer=random_layer,
                target_degree=target_degree,
            ),
        )

    world = GossipWorld(n, seed=seed, extra=extra)
    world.shape = shape
    return world


def ring_converged(world, n):
    adjacency = {}
    for index, node in enumerate(world.nodes):
        if not node.alive:
            continue
        adjacency[index] = [
            other for other in node.protocol("ring").neighbors()
        ]
    return world.shape.converged(adjacency, n)


class TestConvergence:
    def test_small_ring_converges(self):
        world = ring_world(32, seed=2)
        for round_index in range(40):
            world.run(1)
            if ring_converged(world, 32):
                break
        else:
            pytest.fail("ring did not converge in 40 rounds")
        assert round_index < 15

    def test_neighbors_are_the_closest_entries(self):
        world = ring_world(32, seed=3)
        world.run(20)
        node = world.nodes[10]
        assert sorted(node.protocol("ring").neighbors()) == [9, 11]

    def test_larger_ring_needs_more_rounds_but_converges(self):
        world = ring_world(128, seed=4)
        rounds = None
        for round_index in range(40):
            world.run(1)
            if ring_converged(world, 128):
                rounds = round_index + 1
                break
        assert rounds is not None


class TestSelfHealing:
    def test_recovers_after_failures(self):
        n = 48
        world = ring_world(n, seed=5)
        world.run(20)
        assert ring_converged(world, n)
        # Kill every 6th node; survivors must re-tighten around the holes.
        victims = [i for i in range(0, n, 6)]
        for victim in victims:
            world.network.kill(victim)
        world.run(25)
        live = [i for i in range(n) if world.network.is_alive(i)]
        for index in live:
            neighbors = world.nodes[index].protocol("ring").neighbors()
            assert all(world.network.is_alive(other) for other in neighbors)


class TestProfileManagement:
    def test_set_profile_discards_ineligible(self):
        proximity = FilteredProximity(
            lambda a, b: abs(a - b), lambda a, b: (a > 0) == (b > 0)
        )
        instance = Vicinity(0, profile=5, proximity=proximity, layer="v")
        from repro.gossip.descriptors import Descriptor

        instance.view.insert(Descriptor(1, 0, profile=4))
        instance.view.insert(Descriptor(2, 0, profile=-3))
        instance.set_profile(7)
        assert instance.view.ids() == [1]

    def test_set_profile_changes_ranking(self):
        world = ring_world(24, seed=6)
        world.run(15)
        protocol = world.nodes[0].protocol("ring")
        protocol.set_profile(12)
        world.run(10)
        neighbors = set(protocol.neighbors())
        assert neighbors & {11, 12, 13}

    def test_self_descriptor_carries_profile(self):
        instance = Vicinity(3, profile="coord", proximity=Proximity(lambda a, b: 0.0))
        descriptor = instance.self_descriptor()
        assert descriptor.node_id == 3
        assert descriptor.age == 0
        assert descriptor.profile == "coord"


class TestWithoutRandomLayer:
    def test_isolated_without_feed_and_empty_view(self):
        """No random layer and no seed view: the protocol cannot even pick a
        partner — the ablation case A2 documents this starvation."""
        world = ring_world(16, seed=7, random_layer=None)
        world.run(5)
        assert all(
            len(world.nodes[i].protocol("ring").view) == 0 for i in range(16)
        )

    def test_forget(self):
        world = ring_world(16, seed=8)
        world.run(10)
        protocol = world.nodes[0].protocol("ring")
        target = protocol.view.ids()[0]
        protocol.forget(target)
        assert target not in protocol.view.ids()


class TestBandwidth:
    def test_exchanges_are_accounted(self):
        world = ring_world(16, seed=9)
        world.run(4)
        assert world.transport.total_bytes("ring") > 0
        # Push-pull: every exchange records two messages.
        assert world.transport.total_messages("ring") % 2 == 0


class Roster(Protocol):
    """A stand-in candidate layer: a fixed neighbour list (UO1 in the runtime)."""

    def __init__(self, ids):
        self.ids = list(ids)

    def step(self, ctx):
        pass

    def neighbors(self):
        return self.ids


class TestBootstrapPartner:
    """An empty view asks the candidate layers before the random layer."""

    N = 16

    def world(self, candidate_layers, roster=()):
        # Same parity = same component: half the peer-sampling view is ineligible.
        proximity = FilteredProximity(
            lambda a, b: abs(a - b), lambda a, b: a % 2 == b % 2
        )

        def extra(node, index):
            node.attach("members", Roster(roster if index == 0 else ()))
            node.attach(
                "core",
                Vicinity(
                    node.node_id,
                    profile=index,
                    proximity=proximity,
                    layer="core",
                    candidate_layers=candidate_layers,
                ),
            )

        return GossipWorld(self.N, seed=3, extra=extra)

    def draw(self, world):
        """Node 0's partner rule on its (empty) view: the candidate ids each
        ``rng.choice`` was offered, and the partner returned (the first)."""
        offered = []

        def choice(candidates):
            offered.append([d.node_id for d in candidates])
            return candidates[0]

        ctx = SimpleNamespace(
            round=0,
            obs=None,
            node=world.nodes[0],
            network=world.network,
            peers=world.network,
            transport=world.transport,
            rng=lambda: SimpleNamespace(choice=choice),
        )
        return world.nodes[0].protocol("core")._choose_partner(ctx), offered

    def test_candidate_layer_comes_first(self):
        world = self.world(["members"], roster=[7, 6, 0, 12, 3])
        world.network.kill(12)
        # Eligible, alive, not self — in the candidate layer's own order.
        assert self.draw(world) == (6, [[6]])

    def test_falls_back_to_the_random_layer(self):
        """A candidate layer with nobody eligible costs no draw."""
        world = self.world(["members"], roster=[7, 3])
        eligible = [i for i in world.ps(0).neighbors() if i % 2 == 0]
        assert eligible
        assert self.draw(world) == (eligible[0], [eligible])

    def test_no_candidate_layer_draws_as_before(self):
        """One ``choice`` over the eligible peer-sampling adverts, in view
        order — the elementary stack's draw, which its committed digests pin."""
        world = self.world([])
        eligible = [i for i in world.ps(0).neighbors() if i % 2 == 0]
        assert self.draw(world) == (eligible[0], [eligible])

    def test_nobody_anywhere(self):
        world = self.world(["members"], roster=[5])
        world.ps(0).view.replace([])
        assert self.draw(world) == (None, [])
