"""Tests for the node population (churn, lookup) and its rendezvous."""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.sim.network import Network, Rendezvous


class TestPopulation:
    def test_create_assigns_monotonic_ids(self):
        net = Network()
        nodes = net.create_nodes(5)
        assert [n.node_id for n in nodes] == [0, 1, 2, 3, 4]

    def test_ids_never_reused_after_removal(self):
        net = Network()
        net.create_nodes(3)
        net.kill(2)
        fresh = net.create_node()
        assert fresh.node_id == 3

    def test_negative_create_raises(self):
        with pytest.raises(SimulationError):
            Network().create_nodes(-1)

    def test_len_and_size(self):
        net = Network()
        net.create_nodes(4)
        assert len(net) == net.size() == 4


class TestLiveness:
    def test_kill_marks_dead(self):
        net = Network()
        net.create_nodes(3)
        net.kill(1)
        assert not net.is_alive(1)
        assert net.is_alive(0)
        assert net.alive_count() == 2

    def test_revive(self):
        net = Network()
        net.create_nodes(2)
        net.kill(0)
        net.revive(0)
        assert net.is_alive(0)

    def test_is_alive_unknown_is_false(self):
        assert not Network().is_alive(99)

    def test_alive_ids_sorted_and_cached(self):
        net = Network()
        net.create_nodes(6)
        net.kill(3)
        assert net.alive_ids() == [0, 1, 2, 4, 5]
        # Cache must invalidate on the next change.
        net.kill(0)
        assert net.alive_ids() == [1, 2, 4, 5]
        net.revive(3)
        assert 3 in net.alive_ids()

    def test_alive_nodes_iteration(self):
        net = Network()
        net.create_nodes(4)
        net.kill(2)
        assert [n.node_id for n in net.alive_nodes()] == [0, 1, 3]


class TestRendezvous:
    def test_every_created_node_registers(self):
        net = Network()
        net.create_nodes(4)
        assert sorted(net.rendezvous.sample(random.Random(0), 10)) == [0, 1, 2, 3]

    def test_self_is_excluded(self):
        net = Network()
        net.create_nodes(5)
        rng = random.Random(2)
        for _ in range(50):
            assert 1 not in net.rendezvous.sample(rng, 3, exclude=1)

    def test_killed_ids_are_included(self):
        # Nobody deregisters: the rendezvous knows who joined, not who lives.
        net = Network()
        net.create_nodes(4)
        net.kill(1)
        assert sorted(net.rendezvous.sample(random.Random(0), 10)) == [0, 1, 2, 3]

    def test_sample_is_bounded_by_count(self):
        net = Network()
        net.create_nodes(10)
        rng = random.Random(3)
        for count in (0, 1, 4, 9):
            drawn = net.rendezvous.sample(rng, count, exclude=0)
            assert len(drawn) == count == len(set(drawn))
        assert Rendezvous().sample(rng, 4) == []
        lone = Rendezvous()
        lone.register(7)
        assert lone.sample(rng, 4, exclude=7) == []

    def test_all_alive_draw_equals_the_sorted_live_draw(self):
        # While nobody is dead the rendezvous draw is the old bootstrap draw
        # over the sorted live population, so deployments do not move.
        net = Network()
        net.create_nodes(30)
        for node_id in (0, 11, 29):
            old = random.Random(node_id)
            expected = old.sample(
                [other for other in net.alive_ids() if other != node_id], 8
            )
            drawn = net.rendezvous.sample(random.Random(node_id), 8, exclude=node_id)
            assert drawn == expected
