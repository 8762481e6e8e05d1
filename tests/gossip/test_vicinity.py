"""Tests for the Vicinity overlay-construction protocol."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.gossip.descriptors import Descriptor
from repro.gossip.selection import Proximity, select_closest
from repro.gossip.tman import TMan
from repro.gossip.vicinity import Vicinity
from repro.shapes import make_shape
from repro.sim.node import Node
from repro.sim.protocol import Protocol
from repro.sim.transport import ExchangeRequest
from tests.gossip.helpers import FilteredProximity, GossipWorld


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


# -- the passive reply skips what the request shipped ---------------------------

RING = 40


def standalone(cls=Vicinity, node_id=0, entries=(), feed=()):
    """A ring instance holding ``entries`` whose only helper layer lists
    ``feed``: the candidate pool is exactly the view plus those ids' adverts
    (:func:`offer_ctx`)."""
    instance = cls(
        node_id,
        profile=node_id,
        proximity=Proximity(make_shape("ring").metric(RING)),
        layer="ring",
        random_layer="feed",
    )
    node = Node(node_id)
    node.attach("feed", Roster(feed))
    node.attach("ring", instance)
    instance.host = node  # ``Protocol.node`` is a weak proxy
    for descriptor in entries:
        instance.view.insert(descriptor)
    return instance


def advert_of(node_id, layer="ring"):
    return Descriptor(node_id, age=0, profile=node_id)


def offer_ctx():
    """Every peer is alive and reachable, and advertises its rank."""
    always = lambda *args: True  # noqa: E731
    return SimpleNamespace(
        round=3,
        obs=None,
        peers=SimpleNamespace(
            is_alive=always, advert=advert_of, profile=lambda node_id, layer: node_id
        ),
        transport=SimpleNamespace(reachable=always),
    )


def entries_of(ids_and_ages):
    return [Descriptor(node_id, age=age, profile=node_id) for node_id, age in ids_and_ages]


def reply_to(instance, sender, shipped):
    request = ExchangeRequest("ring", sender, entries_of((i, 0) for i in shipped), sender)
    return instance._offer(offer_ctx(), None, sender, request)


@settings(max_examples=200, deadline=None)
@given(
    pool=st.dictionaries(
        st.integers(1, RING - 1), st.integers(0, 30), max_size=12
    ),
    # Never the responder (node 0): an active offer excludes its partner.
    shipped=st.sets(st.integers(1, RING - 1), max_size=8),
    sender=st.integers(1, RING - 1),
    # Overlaps the view and the shipped ids at will.
    feed=st.lists(st.integers(1, RING - 1), unique=True, max_size=6),
)
def test_a_passive_reply_never_echoes_the_request(pool, shipped, sender, feed):
    instance = standalone(entries=entries_of(pool.items()), feed=feed)
    reply, kept = reply_to(instance, sender, shipped)
    ids = [d.node_id for d in reply]
    assert not set(ids) & shipped
    assert len(set(ids)) == len(ids) and sender not in ids
    # Full whenever the rest of the pool (own advert included) allows.
    left = {
        node_id
        for node_id, age in pool.items()
        if age <= instance.descriptor_ttl
    } | set(feed) | {instance.node_id}
    left -= shipped | {sender}
    assert len(reply) == min(instance.params.gossip_size, len(left))
    # And it is what the parent's ranking picks among what is left.
    candidates = instance.view.descriptors() + [advert_of(i) for i in feed]
    expected = select_closest(
        [d for d in candidates if d.node_id not in shipped]
        + [instance.self_descriptor()],
        sender,
        instance.proximity,
        instance.params.gossip_size,
        exclude_id=sender,
        max_age=instance.descriptor_ttl,
    )
    assert [tuple(d) for d in reply] == [tuple(d) for d in expected]
    # What either half keeps for the merge is the helper feed, whole and in
    # order: unfiltered by the request, and never the view (the merge reads
    # the view as it is then).
    assert [tuple(d) for d in kept] == [tuple(advert_of(i)) for i in feed]
    _, kept = instance._offer(offer_ctx(), None, sender, None)
    assert [tuple(d) for d in kept] == [tuple(advert_of(i)) for i in feed]


#: Node 0's active offers to partners 5 and 33 over the view below, recorded
#: before a reply began skipping what its request shipped (the active half
#: must not move): (id, age, profile, minted) per entry. 3 is past the TTL.
ACTIVE_VIEW = ((5, 2), (33, 1), (1, 4), (39, 0), (2, 7), (38, 3), (20, 1), (3, 30))
ACTIVE_GOLDEN = {
    5: [(2, 7, 2, None), (1, 4, 1, None), (0, 0, 0, None), (39, 0, 39, None),
        (38, 3, 38, None), (33, 1, 33, None)],
    33: [(38, 3, 38, None), (39, 0, 39, None), (0, 0, 0, None), (1, 4, 1, None),
         (2, 7, 2, None), (5, 2, 5, None)],
}


@pytest.mark.parametrize("partner", sorted(ACTIVE_GOLDEN))
def test_the_active_offer_is_unchanged(partner):
    instance = standalone(entries=entries_of(ACTIVE_VIEW))
    offer, kept = instance._offer(offer_ctx(), None, partner, None)
    assert [tuple(d) for d in offer] == ACTIVE_GOLDEN[partner]
    # The helper feed, empty here: the view is not kept.
    assert kept == []


def test_the_merge_still_ranks_the_whole_kept_pool():
    # Node 10 holds its ring neighbours; the requester (12) ships 9 and 11.
    # The reply skips them, but 10's own view keeps them: the merge ranks
    # the whole view plus what arrived.
    instance = standalone(
        node_id=10, entries=entries_of((i, 1) for i in (9, 11, 8, 13, 20, 30))
    )
    request = ExchangeRequest("ring", 12, entries_of((i, 0) for i in (9, 11, 14)), 12)
    reply = instance.on_request(offer_ctx(), request)
    assert not {d.node_id for d in reply} & {9, 11, 14}
    assert {9, 11} <= set(instance.view.ids())
    assert sorted(instance.view.ids()) == sorted(
        d.node_id
        for d in select_closest(
            entries_of((i, 1) for i in (9, 11, 8, 13, 20, 30))
            + entries_of((i, 1) for i in (9, 11, 14)),
            10,
            instance.proximity,
            instance.params.view_size,
            exclude_id=10,
        )
    )


def test_tman_follows_the_same_rule():
    pool = entries_of((i, 1) for i in (1, 2, 3, 4, 5, 6, 7, 8, 9))
    vicinity = standalone(entries=pool)
    tman = standalone(TMan, entries=pool)
    for shipped in ((), (1, 2), (1, 2, 3, 4, 5, 6, 7, 8)):
        mine, _ = reply_to(vicinity, 3, shipped)
        theirs, _ = reply_to(tman, 3, shipped)
        assert [tuple(d) for d in theirs] == [tuple(d) for d in mine]
        assert not {d.node_id for d in theirs} & set(shipped)
