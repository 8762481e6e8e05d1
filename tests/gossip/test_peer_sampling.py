"""Tests for the gossip-based peer-sampling service."""

from __future__ import annotations

from repro.gossip.descriptors import Descriptor
from tests.gossip.helpers import GossipWorld

#: Rounds a node whose view holds only dead ids needs to hold only live ones.
DEAD_ONLY_ROUNDS = 3


class TestBootstrap:
    def test_bootstrap_fills_view(self):
        world = GossipWorld(20)
        sizes = [len(world.ps(i).view) for i in range(20)]
        assert all(size == world.params.view_size for size in sizes)

    def test_bootstrap_excludes_self(self):
        world = GossipWorld(10)
        for index in range(10):
            assert world.nodes[index].node_id not in world.ps(index).view.ids()

    def test_bootstrap_with_tiny_population(self):
        world = GossipWorld(2)
        assert world.ps(0).view.ids() == [1]

    def test_bootstrap_alone_is_noop(self):
        world = GossipWorld(1)
        assert len(world.ps(0).view) == 0


class TestMixing:
    def test_views_stay_full_and_change_over_time(self):
        world = GossipWorld(40, seed=3)
        world.run(1)
        before = {i: set(world.ps(i).view.ids()) for i in range(40)}
        world.run(6)
        after = {i: set(world.ps(i).view.ids()) for i in range(40)}
        # Views remain (nearly) full...
        assert all(
            len(world.ps(i).view) >= world.params.view_size - 1 for i in range(40)
        )
        # ...and the swapper/healer machinery actually mixes their contents.
        changed = sum(1 for i in range(40) if before[i] != after[i])
        assert changed > 30

    def test_knowledge_graph_becomes_connected(self):
        """From any node, every other node is reachable through views."""
        world = GossipWorld(30, seed=5)
        world.run(10)
        adjacency = {
            node.node_id: set(world.ps(i).view.ids())
            for i, node in enumerate(world.nodes)
        }
        seen = {0}
        frontier = [0]
        while frontier:
            current = frontier.pop()
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        assert seen == set(range(30))

    def test_self_never_in_own_view(self):
        world = GossipWorld(20, seed=7)
        world.run(8)
        for index in range(20):
            assert world.nodes[index].node_id not in world.ps(index).view.ids()

    def test_bandwidth_accounted(self):
        world = GossipWorld(10, seed=2)
        world.run(3)
        assert world.transport.total_bytes("peer_sampling") > 0
        assert world.transport.total_messages("peer_sampling") >= 10 * 3


class TestFailureHealing:
    def test_dead_nodes_purged_from_views(self):
        world = GossipWorld(30, seed=9)
        world.run(5)
        victims = [0, 1, 2, 3, 4]
        for victim in victims:
            world.network.kill(victim)
        world.run(15)
        victim_ids = {world.nodes[v].node_id for v in victims}
        for index in range(5, 30):
            leaked = victim_ids & set(world.ps(index).view.ids())
            assert not leaked, f"node {index} still references dead peers {leaked}"

    def test_rejoin_after_total_isolation(self):
        """A node whose view is wiped re-bootstraps from the rendezvous."""
        world = GossipWorld(12, seed=4)
        world.run(3)
        world.ps(0).view.clear()
        world.run(2)
        assert len(world.ps(0).view) > 0

    def test_dead_only_view_rebootstraps_from_the_rendezvous(self, monkeypatch):
        """A view holding only dead ids purges them, refills from the
        rendezvous (which may hand out dead ids too) and holds only live
        ids within DEAD_ONLY_ROUNDS rounds. Nobody else knows node 0, so
        no passive exchange can refill its view first."""
        world = GossipWorld(24, seed=6)
        world.run(3)
        dead = [1, 2, 3, 4]
        for victim in dead:
            world.network.kill(victim)
        for index in range(1, 24):
            world.ps(index).forget(0)
        view = world.ps(0).view
        view.clear()
        for victim in dead:
            view.insert(Descriptor(victim, age=0, profile=None))
        rendezvous = world.network.rendezvous
        asked = []
        sample = rendezvous.sample

        def recording_sample(rng, count, exclude=None):
            asked.append(exclude)
            return sample(rng, count, exclude)

        monkeypatch.setattr(rendezvous, "sample", recording_sample)
        world.run(1)
        assert 0 in asked
        for _ in range(DEAD_ONLY_ROUNDS - 1):
            if all(world.network.is_alive(peer) for peer in view.ids()):
                break
            world.run(1)
        assert len(view) > 0
        assert all(world.network.is_alive(peer) for peer in view.ids())

    def test_forget_removes_entry(self):
        world = GossipWorld(6, seed=1)
        world.run(2)
        target = world.ps(0).view.ids()[0]
        world.ps(0).forget(target)
        assert target not in world.ps(0).view.ids()


class TestDeterminism:
    def test_same_seed_same_views(self):
        first = GossipWorld(15, seed=11)
        first.run(6)
        second = GossipWorld(15, seed=11)
        second.run(6)
        for index in range(15):
            assert sorted(first.ps(index).view.ids()) == sorted(
                second.ps(index).view.ids()
            )

    def test_different_seed_different_views(self):
        first = GossipWorld(15, seed=1)
        first.run(6)
        second = GossipWorld(15, seed=2)
        second.run(6)
        differing = sum(
            1
            for index in range(15)
            if sorted(first.ps(index).view.ids())
            != sorted(second.ps(index).view.ids())
        )
        assert differing > 5
