"""Tests for the runtime's gossip sub-procedures (UO1, UO2, ports, core)."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.core import Runtime
from repro.core.layers import (
    LAYER_CORE,
    LAYER_PORT_CONNECTION,
    LAYER_PORT_SELECTION,
    LAYER_UO1,
    LAYER_UO2,
)
from repro.core.layers.core_protocol import make_core_protocol
from repro.core.layers.uo1 import SameComponentOverlay
from repro.core.layers.uo2 import DistantComponentOverlay
from repro.core.layers.port_connection import PortConnection
from repro.core.layers.port_selection import PortSelection
from repro.core.link import LinkSpec, PortRef
from repro.core.port import HighestIdSelector, PortSpec, RankSelector
from repro.core.profiles import NodeProfile
from repro.dsl import TopologyBuilder
from repro.experiments.topologies import ring_of_rings
from repro.gossip.descriptors import Descriptor
from repro.shapes.ring import Ring
from repro.sim.config import GossipParams
from repro.sim.node import Node
from repro.sim.transport import ExchangeRequest


@pytest.fixture(scope="module")
def pair_deployment():
    """A ring+clique assembly, run for a fixed 30 rounds (module-scoped:
    the layer assertions below only read state)."""
    builder = TopologyBuilder("Pair")
    builder.component("ring", "ring", size=16).port("gate", "lowest_id")
    builder.component("cell", "clique", size=8).port("gate", "highest_id")
    builder.link(("ring", "gate"), ("cell", "gate"))
    assembly = builder.nodes(24).build()
    deployment = Runtime(assembly, seed=21).deploy(24)
    deployment.run(30)
    return deployment


class TestUO1:
    def test_views_only_contain_same_component(self, pair_deployment):
        deployment = pair_deployment
        for node in deployment.network.alive_nodes():
            role = deployment.role_map.role(node.node_id)
            members = set(deployment.role_map.member_ids(role.component))
            for neighbor in node.protocol(LAYER_UO1).neighbors():
                assert neighbor in members

    def test_views_saturate(self, pair_deployment):
        deployment = pair_deployment
        view_size = deployment.config.uo1.view_size
        for node in deployment.network.alive_nodes():
            role = deployment.role_map.role(node.node_id)
            needed = min(view_size, role.comp_size - 1)
            assert len(node.protocol(LAYER_UO1).neighbors()) >= needed

    def test_no_self_entries(self, pair_deployment):
        for node in pair_deployment.network.alive_nodes():
            assert node.node_id not in node.protocol(LAYER_UO1).neighbors()

    def test_set_profile_flushes_foreign_entries(self, pair_deployment):
        node = next(pair_deployment.network.alive_nodes())
        protocol = node.protocol(LAYER_UO1)
        original = protocol.profile
        try:
            protocol.set_profile(
                NodeProfile("elsewhere", 0, 4, 0)
            )
            assert len(protocol.view) == 0
        finally:
            protocol.set_profile(original)


def member(node_id, age=0, component="home"):
    return Descriptor(node_id, age, NodeProfile(component, node_id % 4, 4, 0))


class TestUO1Adopt:
    """The one way in for sightings UO1's own gossip did not carry."""

    def test_applies_uo1s_own_rules(self):
        uo1 = SameComponentOverlay(0, NodeProfile("home", 0, 4, 0))
        ttl = uo1.descriptor_ttl
        assert uo1.adopt(member(1, age=1))
        assert not uo1.adopt(member(1, age=2))  # the younger copy is kept
        assert not uo1.adopt(member(2, component="away"))  # foreign
        assert not uo1.adopt(Descriptor(2, 0, profile=7))  # no role at all
        assert not uo1.adopt(member(0))  # self
        assert not uo1.adopt(member(3, age=ttl + 1))  # past the TTL
        assert uo1.adopt(member(3, age=ttl))
        uo1.view.purge(1)
        assert not uo1.adopt(member(1, age=1))  # tombstoned: a stale copy
        assert uo1.neighbors() == [3]
        assert uo1.adopt(member(1, age=0))  # the owner itself lifts it
        assert sorted(uo1.neighbors()) == [1, 3]

    def test_follows_set_profile(self):
        uo1 = SameComponentOverlay(0, NodeProfile("home", 0, 4, 0))
        uo1.adopt(member(1))
        uo1.set_profile(NodeProfile("away", 0, 4, 0))
        assert uo1.neighbors() == []
        assert not uo1.adopt(member(1))  # the old component is foreign now
        assert uo1.adopt(member(2, component="away"))
        assert uo1.neighbors() == [2]


def own_stack_ctx(node_id, round_number=0, **protocols):
    """A context as the passive half sees it: ``ctx.node`` is the requester,
    so a sibling layer may only be reached through the protocols' own node
    (they are attached to a fresh ``node_id``), and no other node is asked."""

    def off_limits(*_args):
        raise AssertionError("reached past this node's own stack")

    own = Node(node_id)
    for layer, protocol in protocols.items():
        own.attach(layer, protocol)
    return SimpleNamespace(
        round=round_number,
        obs=None,
        host=own,  # the protocols hold their node weakly
        node=SimpleNamespace(has_protocol=off_limits, protocol=off_limits, find=off_limits),
        network=SimpleNamespace(node=off_limits),
        peers=SimpleNamespace(
            is_alive=off_limits, runs=off_limits, profile=off_limits, advert=off_limits
        ),
    )


class TestUO1Regime:
    """A member list where the component fits the view, a sampler where it
    does not — and only the member list takes the core's sightings."""

    PARAMS = GossipParams(view_size=10, gossip_size=5, healer=1, swapper=4)

    def home(self, comp_size, rank=0):
        return NodeProfile("home", rank, comp_size, rank)

    def uo1(self, comp_size):
        return SameComponentOverlay(0, self.home(comp_size), self.PARAMS)

    def test_the_boundary_is_the_view_holding_every_other_member(self):
        uo1 = self.uo1(6)
        view_size = self.PARAMS.view_size
        assert uo1.holds_whole(self.home(2))
        assert uo1.holds_whole(self.home(view_size + 1))
        assert not uo1.holds_whole(self.home(view_size + 2))

    def test_gather_follows_set_profile(self):
        """A rebalance that shrinks the component to fit opens the gate; one
        that grows it past the view shuts it again."""
        uo1 = self.uo1(12)
        uo1.gather([member(1)])
        assert uo1.neighbors() == []
        uo1.set_profile(self.home(11))
        uo1.gather([member(1)])
        assert uo1.neighbors() == [1]
        uo1.set_profile(self.home(12))
        uo1.gather([member(2)])
        assert uo1.neighbors() == [1]

    def test_gather_applies_adopts_rules_and_skips_what_is_held(self):
        uo1 = self.uo1(6)
        ttl = uo1.descriptor_ttl
        uo1.adopt(member(1, age=3))
        uo1.adopt(member(4))
        uo1.view.purge(4)
        uo1.gather(
            [
                member(1, age=1),  # held: passed over, even a younger copy
                member(2, age=1),
                member(3, component="away"),
                member(0),  # self
                member(5, age=ttl + 1),  # past the TTL
                member(4, age=1),  # tombstoned, and not its owner's age 0
            ]
        )
        assert [(d.node_id, d.age) for d in uo1.view] == [(1, 3), (2, 1)]

    def core_and_uo1(self, comp_size, flavor="vicinity"):
        profile = self.home(comp_size)
        uo1 = SameComponentOverlay(0, profile, self.PARAMS)
        core = make_core_protocol(0, profile, Ring(), layer="core", flavor=flavor)
        return core, uo1, own_stack_ctx(0, uo1=uo1, core=core)

    def ring_mate(self, node_id, comp_size, age=0):
        return Descriptor(node_id, age, self.home(comp_size, node_id))

    @pytest.mark.parametrize("half", ["active", "passive"])
    def test_the_core_hands_what_it_receives_to_a_member_list(self, half):
        """Either half of the core's exchange, aged the one hop the core
        itself ages it; what the core *holds* is not re-offered."""
        core, uo1, ctx = self.core_and_uo1(6)
        core.view.insert(self.ring_mate(5, 6))
        received = [self.ring_mate(1, 6), self.ring_mate(2, 6, age=2), self.ring_mate(0, 6)]
        if half == "active":
            core._absorb(ctx, core.view.descriptors(), received)
        else:
            ctx.transport = None  # read by the candidate harvest, unused on an empty UO1
            core.on_request(ctx, ExchangeRequest("core", 1, received, self.home(6, 1)))
        assert [(d.node_id, d.age) for d in uo1.view] == [(1, 1), (2, 3)]
        assert sorted(core.neighbors()) == [1, 5]  # the core kept its own counsel

    def test_the_core_hands_nothing_to_a_sampler(self):
        size = self.PARAMS.view_size + 2
        core, uo1, ctx = self.core_and_uo1(size)
        core._absorb(ctx, [], [self.ring_mate(1, size), self.ring_mate(2, size)])
        assert sorted(core.view.ids()) == [1, 2]
        assert uo1.neighbors() == []

    def test_the_tman_core_stays_out(self):
        """Ablation A4's core reads no candidate layer, so it feeds none."""
        core, uo1, ctx = self.core_and_uo1(6, flavor="tman")
        core._absorb(ctx, [], [self.ring_mate(1, 6)])
        assert core.view.ids() == [1]
        assert uo1.neighbors() == []


class TestUO1Offer:
    """The reply fills the gaps in the requester's have-digest."""

    GOSSIP = GossipParams(view_size=12, gossip_size=5, healer=1, swapper=4)

    def uo1(self, n_members=10):
        protocol = SameComponentOverlay(0, NodeProfile("home", 0, 16, 0), self.GOSSIP)
        for node_id in range(1, n_members + 1):
            protocol.adopt(member(node_id, age=node_id % 3))
        return protocol

    def reply(self, protocol, digest, rng, requester=1):
        request = ExchangeRequest(protocol.layer, requester, [member(requester)], digest)
        buffer, kept = protocol._offer(
            SimpleNamespace(round=3, rng=lambda: rng), None, requester, request
        )
        assert kept is buffer and buffer[0] is protocol.self_descriptor()
        return buffer

    def test_the_active_half_ships_its_view_ids(self):
        protocol = self.uo1(4)
        assert protocol.wire_profile == (1, 2, 3, 4)
        assert SameComponentOverlay(0, NodeProfile("home", 0, 4, 0)).wire_profile == ()

    @pytest.mark.parametrize("digest", [None, ()], ids=["none", "empty"])
    def test_without_a_digest_the_reply_is_the_random_slice(self, digest):
        """Buffer for buffer what ``[advert] + view.sample(rng, k)`` gave —
        the requester's own entry included, as it always was."""
        for n_members in (2, 4, 5, 10):
            protocol = self.uo1(n_members)
            expected = [
                protocol.self_descriptor(),
                *protocol.view.sample(random.Random(4), self.GOSSIP.gossip_size - 1),
            ]
            rng = random.Random(4)
            assert self.reply(protocol, digest, rng) == expected
            # ...and the active half is that same slice.
            active, _ = protocol._offer(
                SimpleNamespace(round=3, rng=lambda: random.Random(4)), None, 1, None
            )
            assert active == expected

    def test_no_id_from_the_digest_and_never_the_requester(self):
        protocol = self.uo1(10)
        for digest in [(2,), (2, 3, 4), (1, 2, 3, 4, 5, 6, 7), tuple(range(1, 11))]:
            buffer = self.reply(protocol, digest, random.Random(1), requester=1)
            shipped = [d.node_id for d in buffer[1:]]
            assert not set(shipped) & {1, *digest}
            lacking = set(range(2, 11)) - set(digest)
            assert len(shipped) == min(self.GOSSIP.gossip_size - 1, len(lacking))
            assert set(shipped) <= lacking

    def test_the_stream_is_drawn_from_only_past_the_budget(self):
        class Untouchable:
            def sample(self, *_args):
                raise AssertionError("drew from the stream with nothing to choose")

        protocol = self.uo1(10)
        # Nine others, six listed: the three lacking ones all fit.
        buffer = self.reply(protocol, (2, 3, 4, 5, 6, 7), Untouchable())
        assert [d.node_id for d in buffer[1:]] == [8, 9, 10]
        # One listed, eight lacking for four slots: one sample, from the
        # lacking entries alone.
        rng = random.Random(9)
        buffer = self.reply(protocol, (2,), rng)
        lacking = [d for d in protocol.view.descriptors() if d.node_id not in (1, 2)]
        assert buffer[1:] == random.Random(9).sample(lacking, 4)


def counting_obs(counted):
    """An instrument stand-in appending every keyed increment to ``counted``."""
    return SimpleNamespace(count_key=lambda key, value=1: counted.append((key, value)))


#: Component sizes either side of what a default UO1 view (12) lists whole.
SMALL, LARGE = 4, 40
#: ``(comp_size, contacts a foreign requester is sent of a bucket of two)``: a
#: member list gets both, a sampler the youngest.
REGIMES = ((SMALL, 2), (LARGE, 1))


def bare_uo2(contacts, node_id=0, capacity=2, gossip_contacts=8, comp_size=SMALL):
    """A UO2 instance outside any deployment, holding ``contacts`` — an
    iterable of ``(component, node_id, age)`` — whose profiles all claim a
    component of ``comp_size`` members."""
    protocol = DistantComponentOverlay(
        node_id, NodeProfile("home", 0, 4, 0), capacity, gossip_contacts
    )
    for component, contact_id, age in contacts:
        protocol._insert(
            Descriptor(
                contact_id, age, NodeProfile(component, contact_id % 4, comp_size, 0)
            ),
            None,
        )
    return protocol


def full_buckets(n_components):
    """Two contacts in each of ``n_components`` foreign components."""
    return [
        (f"c{c:02d}", 100 + 2 * c + i, (c + i) % 3)
        for c in range(n_components)
        for i in range(2)
    ]


def offer(
    protocol,
    round_number,
    passive=False,
    peer_id=999,
    payload=(),
    digest=None,
    with_uo1=True,
):
    """One offer to ``peer_id``; ``payload`` is what it shipped and
    ``digest`` what it says it holds (passive half). The node runs a sibling
    UO1 with the default view, unless ``with_uo1`` says otherwise."""
    request = (
        ExchangeRequest(protocol.layer, peer_id, list(payload), digest)
        if passive
        else None
    )
    uo1 = SameComponentOverlay(protocol.node_id, protocol.profile) if with_uo1 else None
    buffer, kept = protocol._offer(
        own_node_ctx(protocol, uo1, round_number), None, peer_id, request
    )
    assert kept is None
    return buffer


def components_of(descriptors):
    return [d.profile.component for d in descriptors]


def draw_foreign_partner(protocol, partner_id):
    """Run the partner rule on a foreign-contact turn, the draw forced to
    ``partner_id``: the offer learns the partner's component from it."""

    def pick(candidates):
        assert partner_id in candidates
        return partner_id

    ctx = SimpleNamespace(
        round=1,
        rng=lambda: SimpleNamespace(choice=pick),
        peers=SimpleNamespace(
            is_alive=lambda node_id: True, runs=lambda node_id, layer: True
        ),
        node=SimpleNamespace(has_protocol=lambda layer: False),
    )
    assert protocol._choose_partner(ctx) == partner_id


def own_node_ctx(uo2, uo1, round_number=0):
    """The passive half's view of a node running ``uo2`` and, unless
    ``None``, the sibling ``uo1``."""
    siblings = {LAYER_UO2: uo2} if uo1 is None else {LAYER_UO2: uo2, LAYER_UO1: uo1}
    return own_stack_ctx(uo2.node_id, round_number, **siblings)


def reference_offer(protocol, round_number):
    """The eager round-robin, kept verbatim: rank *every* known bucket, then
    deal one contact per bucket per pass, from the rotating start."""
    buffer = [protocol.self_descriptor()]
    slots = protocol.gossip_contacts - 1
    names = protocol.known_components()
    if names:
        start = (round_number * slots + protocol.node_id) % len(names)
        names = names[start:] + names[:start]
    per_component = [
        sorted(protocol.buckets[name].descriptors(), key=lambda d: (d.age, d.node_id))
        for name in names
    ]
    depth = 0
    while len(buffer) < protocol.gossip_contacts:
        added = False
        for contacts in per_component:
            if depth < len(contacts) and len(buffer) < protocol.gossip_contacts:
                buffer.append(contacts[depth])
                added = True
        if not added:
            break
        depth += 1
    return buffer


class TestUO2:
    def test_contacts_cover_other_components(self, pair_deployment):
        deployment = pair_deployment
        for node in deployment.network.alive_nodes():
            role = deployment.role_map.role(node.node_id)
            other = "cell" if role.component == "ring" else "ring"
            contacts = node.protocol(LAYER_UO2).contacts(other)
            assert contacts, f"node {node.node_id} has no contact in {other}"

    def test_no_own_component_bucket(self, pair_deployment):
        deployment = pair_deployment
        for node in deployment.network.alive_nodes():
            role = deployment.role_map.role(node.node_id)
            protocol = node.protocol(LAYER_UO2)
            assert role.component not in protocol.known_components()

    def test_contacts_belong_to_claimed_component(self, pair_deployment):
        deployment = pair_deployment
        for node in deployment.network.alive_nodes():
            protocol = node.protocol(LAYER_UO2)
            for component in protocol.known_components():
                member_ids = set(deployment.role_map.member_ids(component))
                for descriptor in protocol.contacts(component):
                    assert descriptor.node_id in member_ids

    def test_bucket_capacity_respected(self, pair_deployment):
        deployment = pair_deployment
        capacity = deployment.config.uo2_contacts_per_component
        for node in deployment.network.alive_nodes():
            protocol = node.protocol(LAYER_UO2)
            for component in protocol.known_components():
                assert len(protocol.contacts(component)) <= capacity

    def test_forget(self, pair_deployment):
        node = next(pair_deployment.network.alive_nodes())
        protocol = node.protocol(LAYER_UO2)
        neighbors = protocol.neighbors()
        if neighbors:
            protocol.forget(neighbors[0])
            assert neighbors[0] not in protocol.neighbors()

    # -- the payload rule: self-advert first, then a fair, bounded round-robin --

    @pytest.mark.parametrize("passive", [False, True], ids=["active", "passive"])
    @pytest.mark.parametrize("n_components,gossip_contacts", [(19, 8), (9, 8), (12, 4), (5, 2)])
    def test_every_component_ships_within_one_cycle(
        self, n_components, gossip_contacts, passive
    ):
        slots = gossip_contacts - 1
        assert n_components > slots
        cycle = -(-n_components // slots)
        for node_id in (0, 3, 17):
            protocol = bare_uo2(
                full_buckets(n_components), node_id, gossip_contacts=gossip_contacts
            )
            known = set(protocol.known_components())
            for first_round in range(2 * n_components):
                shipped = set()
                for round_number in range(first_round, first_round + cycle):
                    buffer = offer(protocol, round_number, passive)
                    assert buffer[0] is protocol.self_descriptor()
                    assert len(buffer) == gossip_contacts
                    shipped.update(d.profile.component for d in buffer[1:])
                assert shipped == known, (node_id, first_round)

    def test_zero_slots_ships_the_advert_alone(self):
        protocol = bare_uo2(full_buckets(3), gossip_contacts=1)
        for round_number in range(4):
            assert offer(protocol, round_number) == [protocol.self_descriptor()]
        assert offer(bare_uo2([]), 0) == [bare_uo2([]).self_descriptor()]

    def test_offer_matches_the_eager_round_robin(self):
        """Same descriptors, same order — ties, emptied buckets, age debt and
        every budget included — as ranking all buckets up front."""
        rng = random.Random(15)
        for _ in range(300):
            n_components = rng.randint(0, 24)
            capacity = rng.randint(1, 4)
            contacts = [
                (f"c{c:02d}", 100 + 8 * c + i, rng.randint(0, 2))
                for c in range(n_components)
                for i in range(rng.randint(1, capacity + 1))
            ]
            protocol = bare_uo2(
                contacts,
                node_id=rng.randint(0, 50),
                capacity=capacity,
                gossip_contacts=rng.randint(1, 12),
            )
            for _component, contact_id, _age in rng.sample(contacts, len(contacts) // 5):
                protocol.forget(contact_id)  # may leave empty buckets behind
            for bucket in protocol.buckets.values():
                for _ in range(rng.randint(0, 2)):
                    bucket.increase_age()
            for round_number in rng.sample(range(60), 4):
                expected = reference_offer(protocol, round_number)
                actual = offer(protocol, round_number)
                # Descriptor equality is (node_id, age): list equality is
                # order identity, ties included.
                assert actual == expected

    def test_partner_choice_ignores_age_debt(self):
        """The candidate list is built from ids alone: same list, same order,
        one ``rng.choice`` — whether or not any bucket owes aging."""
        contacts = full_buckets(6)
        dead = {103, 108}
        without_layer = {105}

        class RecordingRng:
            def __init__(self):
                self.calls = []

            def choice(self, candidates):
                self.calls.append(list(candidates))
                return candidates[0]

        def choose(protocol):
            rng = RecordingRng()
            peers = SimpleNamespace(
                is_alive=lambda node_id: node_id not in dead,
                runs=lambda node_id, layer: node_id not in without_layer,
            )
            ctx = SimpleNamespace(
                round=1,  # odd: the foreign-contact turn
                rng=lambda: rng,
                peers=peers,
                node=SimpleNamespace(has_protocol=lambda layer: False),
                obs=None,
            )
            return protocol._choose_partner(ctx), rng.calls

        settled, indebted = bare_uo2(contacts), bare_uo2(contacts)
        for bucket in indebted.buckets.values():
            bucket.increase_age()
            bucket.increase_age()
        expected = [
            contact_id
            for _component, contact_id, _age in contacts
            if contact_id not in dead | without_layer
        ]
        assert choose(settled) == (expected[0], [expected])
        assert choose(indebted) == (expected[0], [expected])
        # ...and the debt is still honoured by the next age-sensitive read.
        assert [d.age for d in indebted.contacts("c00")] == [
            d.age + 2 for d in settled.contacts("c00")
        ]

    @pytest.mark.parametrize("round_number", [1, 2], ids=["foreign-turn", "uo1-turn"])
    def test_partner_scan_purges_dead_contacts(self, round_number):
        """The dead-contact twin: a failed probe purges, tombstones and is
        counted once — on either turn — so a bucket of corpses drops out of
        ``known_components()`` and of the digest; live-only buckets are
        still not settled."""
        protocol = bare_uo2(full_buckets(4))
        dead = {102, 103, 105}  # all of c01, half of c02
        for bucket in protocol.buckets.values():
            bucket.increase_age()
        counted = []
        uo1 = SimpleNamespace(neighbors=lambda: [1])
        ctx = SimpleNamespace(
            round=round_number,
            rng=lambda: SimpleNamespace(choice=lambda candidates: candidates[0]),
            peers=SimpleNamespace(
                is_alive=lambda node_id: node_id not in dead,
                runs=lambda node_id, layer: True,
            ),
            node=SimpleNamespace(has_protocol=lambda layer: True, protocol=lambda layer: uo1),
            obs=counting_obs(counted),
        )
        assert protocol._choose_partner(ctx) == (100 if round_number % 2 else 1)
        assert counted == [(("dead_purged", "uo2"), 1)] * 3
        assert protocol.known_components() == ["c00", "c02", "c03"]
        assert protocol.wire_profile == ("c00", "c02", "c03")
        assert sorted(protocol.neighbors()) == [100, 101, 104, 106, 107]
        for node_id in dead:
            component = f"c{(node_id - 100) // 2:02d}"
            assert protocol.buckets[component].is_purged(node_id)
            assert not protocol._insert(member(node_id, 1, component), None)  # a stale copy
        # Nothing left to purge: a second scan counts nothing more.
        protocol._choose_partner(ctx)
        assert len(counted) == 3
        assert protocol.buckets["c00"]._age_debt == 1 and protocol.buckets["c03"]._age_debt == 1
        assert protocol._insert(member(102, 0, "c01"), None)  # the owner itself is back

    # -- the offer answers this partner --------------------------------------------

    @pytest.mark.parametrize("passive", [False, True], ids=["active", "passive"])
    @pytest.mark.parametrize("n_components,gossip_contacts", [(19, 8), (5, 8), (12, 4), (5, 2)])
    def test_one_slot_goes_to_the_partners_component(
        self, n_components, gossip_contacts, passive
    ):
        """Buffer ≤ budget, self-advert first, then the youngest *other*
        contact of the partner's own component — once, and never the partner.
        In either regime: the partner is one of the two its bucket holds."""
        for comp_size, _ in REGIMES:
            protocol = bare_uo2(
                full_buckets(n_components), gossip_contacts=gossip_contacts, comp_size=comp_size
            )
            for theirs in protocol.known_components():
                for partner in protocol.contacts(theirs):
                    (other,) = [
                        c for c in protocol.contacts(theirs) if c.node_id != partner.node_id
                    ]
                    if not passive:
                        draw_foreign_partner(protocol, partner.node_id)
                    for round_number in range(n_components):
                        buffer = offer(
                            protocol, round_number, passive, partner.node_id, [partner]
                        )
                        assert buffer[0] is protocol.self_descriptor()
                        assert len(buffer) == min(
                            gossip_contacts, 2 * n_components
                        )  # the budget, or every contact but the partner
                        assert buffer[1] == other
                        assert components_of(buffer[1:]).count(theirs) == 1
                        assert partner.node_id not in [d.node_id for d in buffer]

    def test_a_lone_contact_is_not_offered_to_itself(self):
        protocol = bare_uo2([("c00", 100, 0), ("c01", 102, 0)])
        draw_foreign_partner(protocol, 100)
        assert [d.node_id for d in offer(protocol, 0, peer_id=100)] == [0, 102]
        assert [d.node_id for d in offer(protocol, 0, True, 100, [member(100, 0, "c00")])] == [0, 102]

    @pytest.mark.parametrize("passive", [False, True], ids=["active", "passive"])
    def test_a_component_listed_whole_gets_every_contact_held(self, passive):
        """Three held where the partner lives: a member list is sent the
        other two, a sampler the youngest alone; the rotation gets the rest
        of the budget, and a short budget is not overdrawn."""
        contacts = [("c00", 100, 0), ("c00", 101, 2), ("c00", 102, 1)]
        contacts += [("c01", 110, 0), ("c02", 120, 0)]
        partner = [member(100, 0, "c00")]
        for comp_size, mates in ((SMALL, [102, 101]), (LARGE, [102])):
            protocol = bare_uo2(contacts, capacity=3, comp_size=comp_size)
            if not passive:
                draw_foreign_partner(protocol, 100)
            ids = [d.node_id for d in offer(protocol, 0, passive, 100, partner)]
            assert ids[: 1 + len(mates)] == [0, *mates]
            assert sorted(ids[1 + len(mates) :]) == [110, 120]
        tight = bare_uo2(contacts, capacity=3, gossip_contacts=2)
        if not passive:
            draw_foreign_partner(tight, 100)
        assert [d.node_id for d in offer(tight, 0, passive, 100, partner)] == [0, 102]

    def test_the_regime_is_read_off_the_contact_against_the_sibling_view(self):
        """``comp_size`` in the shipped contact's own profile, against the
        view of the UO1 on this node (12 by default); no UO1, no member list."""
        contacts = [("c00", 100, 0), ("c00", 101, 1)]
        requester = [member(900, 0, "c00")]
        for comp_size, with_uo1, shipped in (
            (13, True, [100, 101]),
            (14, True, [100]),
            (13, False, [100]),
        ):
            protocol = bare_uo2(contacts, comp_size=comp_size)
            buffer = offer(protocol, 0, True, 900, requester, with_uo1=with_uo1)
            assert [d.node_id for d in buffer[1:]] == shipped

    def test_same_component_partner_gets_the_plain_rotation(self):
        """No bucket holds the node's own component: nothing to single out."""
        protocol = bare_uo2(full_buckets(12))
        for round_number in range(12):
            assert offer(
                protocol, round_number, True, 1, [member(1)]
            ) == reference_offer(protocol, round_number)

    def test_reply_skips_what_the_requester_shipped(self):
        for comp_size, theirs in REGIMES:
            protocol = bare_uo2(full_buckets(12), comp_size=comp_size)
            known = protocol.known_components()
            shipped = [member(900 + i, 1, name) for i, name in enumerate(known[:7])]
            # A foreign requester's own component leads its reply.
            for requester, mates in ((member(1), 0), (member(900, 0, known[0]), theirs)):
                for round_number in range(12):
                    buffer = offer(
                        protocol, round_number, True, requester.node_id, [requester, *shipped]
                    )
                    assert len(buffer) == protocol.gossip_contacts
                    assert components_of(buffer[1 : 1 + mates]) == [known[0]] * mates
                    fresh = components_of(buffer[1 + mates :])
                    assert set(fresh) == set(known[7:])  # 5 unshipped names fill 5-7 slots

    def test_reply_falls_back_when_everything_was_shipped(self):
        for comp_size, mates in REGIMES:
            protocol = bare_uo2(full_buckets(3), comp_size=comp_size)
            known = protocol.known_components()
            shipped = [member(900 + i, 1, name) for i, name in enumerate(known)]
            # A same-component requester: the whole list again.
            buffer = offer(protocol, 0, True, 1, [member(1), *shipped])
            assert sorted(components_of(buffer[1:])) == sorted(known * 2)
            # A foreign one: its own component keeps what its regime is due
            # — every contact held, or the single slot — and no more.
            buffer = offer(protocol, 0, True, 900, [member(900, 0, known[0]), *shipped])
            assert components_of(buffer[1:]).count(known[0]) == mates
            assert sorted(set(components_of(buffer[1 + mates :]))) == known[1:]

    # -- the have-digest: the reply fills the gaps ------------------------------------

    def test_the_active_half_ships_its_known_components(self):
        protocol = bare_uo2(full_buckets(3))
        assert protocol.wire_profile == ("c00", "c01", "c02")
        protocol.forget(102)
        protocol.forget(103)  # an emptied bucket is not vouched for
        assert protocol.wire_profile == ("c00", "c02")
        assert bare_uo2([]).wire_profile == ()

    def test_the_digest_takes_the_active_offers_names_once(self):
        """``step`` reads the digest straight after the active offer: the
        buckets are ranked once for both. Nothing else may see that copy."""
        protocol = bare_uo2(full_buckets(3))
        rankings = []
        ranked = protocol.known_components
        protocol.known_components = lambda: rankings.append(1) or ranked()
        offer(protocol, 0)
        assert protocol.wire_profile == ("c00", "c01", "c02")
        assert len(rankings) == 1
        protocol.forget(102)
        protocol.forget(103)
        assert protocol.wire_profile == ("c00", "c02")  # a second read ranks afresh
        offer(protocol, 0, True, 1, [member(1)])  # a passive offer leaves nothing
        protocol.forget(100)
        protocol.forget(101)
        assert protocol.wire_profile == ("c02",)

    @pytest.mark.parametrize("n_components,gossip_contacts", [(19, 8), (12, 4), (5, 8)])
    def test_no_slot_goes_to_a_listed_component_while_one_is_lacking(
        self, n_components, gossip_contacts
    ):
        rng = random.Random(n_components)
        for comp_size, theirs in REGIMES:
            protocol = bare_uo2(
                full_buckets(n_components), gossip_contacts=gossip_contacts, comp_size=comp_size
            )
            known = protocol.known_components()
            for requester, mates in ((member(1), 0), (member(900, 0, known[0]), theirs)):
                for round_number in range(n_components):
                    digest = tuple(rng.sample(known, rng.randint(1, n_components - 1)))
                    payload = [requester, member(901, 1, known[-1])]
                    buffer = offer(
                        protocol, round_number, True, requester.node_id, payload, digest
                    )
                    has = {*digest, *components_of(payload)}
                    lacking = set(known) - has
                    if not lacking:
                        continue  # the fallback's case, pinned below
                    assert buffer[0] is protocol.self_descriptor()
                    assert len(buffer) <= gossip_contacts
                    # The slots for the requester's own component aside (its UO1's).
                    assert components_of(buffer[1 : 1 + mates]) == [known[0]] * mates
                    rotation = buffer[1 + mates :]
                    assert set(components_of(rotation)) <= lacking
                    slots = gossip_contacts - 1 - mates
                    assert len(set(components_of(rotation))) == min(slots, len(lacking))

    @pytest.mark.parametrize("digest", [None, ()], ids=["none", "empty"])
    def test_without_a_digest_the_reply_is_the_uninformed_one(self, digest):
        """``None`` (a requester that ships none) and an empty digest (one
        that knows nothing yet) skip only what the payload shipped."""
        protocol = bare_uo2(full_buckets(12))
        known = protocol.known_components()
        shipped = [member(900 + i, 1, name) for i, name in enumerate(known[:4])]
        for round_number in range(12):
            assert offer(
                protocol, round_number, True, 1, [member(1)], digest
            ) == reference_offer(protocol, round_number)
            buffer = offer(protocol, round_number, True, 1, [member(1), *shipped], digest)
            assert len(buffer) == protocol.gossip_contacts
            assert not set(components_of(buffer[1:])) & set(known[:4])

    def test_a_digest_listing_everything_falls_back_to_the_rotation(self):
        protocol = bare_uo2(full_buckets(12))
        everything = tuple(protocol.known_components())
        for round_number in range(12):
            assert offer(
                protocol, round_number, True, 1, [member(1)], everything
            ) == reference_offer(protocol, round_number)

    # -- the handover: own-component sightings feed UO1 ------------------------------

    def test_absorb_hands_own_component_sightings_to_uo1(self):
        home = NodeProfile("home", 0, 4, 0)
        uo1 = SameComponentOverlay(0, home)
        uo2 = DistantComponentOverlay(0, home)
        ttl = uo1.descriptor_ttl
        uo1.adopt(member(4))
        uo1.view.purge(4)
        received = [
            member(1),  # a ring-mate: UO1's, one hop older
            member(100, 0, "c00"),  # foreign: the bucket's
            member(0),  # self
            member(2, ttl),  # past UO1's TTL once aged in transit
            member(4),  # tombstoned there, and no longer age 0 on arrival
        ]
        uo2._absorb(own_node_ctx(uo2, uo1), None, received)
        assert [(d.node_id, d.age) for d in uo1.view] == [(1, 1)]
        assert uo2.known_components() == ["c00"]
        assert uo2.neighbors() == [100]

    def test_absorb_follows_a_new_role(self):
        """After ``set_profile`` it is the *new* component's descriptors that
        reach UO1; the old one's are foreign contacts."""
        away = NodeProfile("away", 0, 4, 0)
        uo1 = SameComponentOverlay(0, NodeProfile("home", 0, 4, 0))
        uo2 = DistantComponentOverlay(0, NodeProfile("home", 0, 4, 0))
        ctx = own_node_ctx(uo2, uo1)
        uo2._absorb(ctx, None, [member(1), member(5, 0, "away")])
        uo1.set_profile(away)
        uo2.set_profile(away)
        assert uo1.neighbors() == [] and uo2.neighbors() == []
        uo2._absorb(ctx, None, [member(1), member(5, 0, "away")])
        assert uo1.neighbors() == [5]
        assert uo2.known_components() == ["home"] and uo2.neighbors() == [1]

    def test_without_a_uo1_nothing_of_the_own_component_is_kept(self):
        uo2 = DistantComponentOverlay(0, NodeProfile("home", 0, 4, 0))
        uo2._absorb(own_node_ctx(uo2, None), None, [member(1), member(100, 0, "c00")])
        assert uo2.known_components() == ["c00"]

    @pytest.mark.parametrize("seed", [7, 11])
    def test_keeps_pace_with_uo1_past_the_message_budget(self, seed):
        """Fig. 3's knee: 19 foreign components for 7 slots. With a fixed
        round-robin start UO2 took 14 rounds here; with the rotating one, 7
        against a UO1 that took 8-9; with the have-digest on the request, 3.
        Stated absolutely since UO2 feeds UO1 (which then needs 4): a bound
        relative to UO1 would now fail only because UO1 got faster."""
        deployment = Runtime(ring_of_rings(n_rings=20, ring_size=6), seed=seed).deploy(120)
        report = deployment.run_until_converged(60)
        assert report.converged, report.rounds
        assert report.rounds[LAYER_UO1] <= 6, report.rounds
        assert report.rounds[LAYER_UO2] <= 5, report.rounds

    @pytest.mark.slow
    def test_does_not_scale_with_the_component_count(self):
        """40 rings x 6: 39 names through 7 blind slots is a coupon collector
        whose tail grows linearly in K — UO2 took 14-17 rounds here while
        every other layer was done by 7. Asked for what the requester lacks,
        it takes 5 and the whole assembly 5-6 (means over the four seeds:
        16.0 / 16.0 before, 5.0 / 5.75 now)."""
        seeds = (7, 11, 13, 17)
        uo2_rounds, assembly_rounds = [], []
        for seed in seeds:
            deployment = Runtime(ring_of_rings(n_rings=40, ring_size=6), seed=seed).deploy(240)
            report = deployment.run_until_converged(60)
            assert report.converged, (seed, report.rounds)
            uo2_rounds.append(report.rounds[LAYER_UO2])
            assembly_rounds.append(max(report.rounds.values()))
        assert sum(uo2_rounds) / len(seeds) <= 7, uo2_rounds
        assert sum(assembly_rounds) / len(seeds) <= 8, assembly_rounds


class TestCoreProtocol:
    def test_ring_component_realizes_ring(self, pair_deployment):
        deployment = pair_deployment
        members = deployment.role_map.members("ring")
        rank_of = {node_id: rank for node_id, rank in members}
        shape = deployment.assembly.component("ring").shape
        adjacency = {}
        for node_id, rank in members:
            node = deployment.network.node(node_id)
            adjacency[rank] = [
                rank_of[other]
                for other in node.protocol(LAYER_CORE).neighbors()
                if other in rank_of
            ]
        assert shape.converged(adjacency, len(members))

    def test_clique_component_realizes_clique(self, pair_deployment):
        deployment = pair_deployment
        members = deployment.role_map.members("cell")
        member_ids = {node_id for node_id, _ in members}
        for node_id, _ in members:
            node = deployment.network.node(node_id)
            known = set(node.protocol(LAYER_CORE).neighbors())
            assert member_ids - {node_id} <= known

    def test_core_views_never_cross_components(self, pair_deployment):
        deployment = pair_deployment
        for node in deployment.network.alive_nodes():
            role = deployment.role_map.role(node.node_id)
            members = set(deployment.role_map.member_ids(role.component))
            for neighbor in node.protocol(LAYER_CORE).neighbors():
                assert neighbor in members


class TestPortSelection:
    def test_all_members_agree_on_oracle_manager(self, pair_deployment):
        deployment = pair_deployment
        for component, port_name in (("ring", "gate"), ("cell", "gate")):
            spec = deployment.assembly.component(component)
            members = deployment.role_map.members(component)
            expected = spec.port(port_name).selector.choose(members)
            for node_id, _ in members:
                protocol = deployment.network.node(node_id).protocol(
                    LAYER_PORT_SELECTION
                )
                assert protocol.manager_of(port_name) == expected

    def test_manager_self_awareness(self, pair_deployment):
        deployment = pair_deployment
        members = deployment.role_map.members("ring")
        expected = min(node_id for node_id, _ in members)
        protocol = deployment.network.node(expected).protocol(LAYER_PORT_SELECTION)
        assert protocol.manager_of("gate") == protocol.node_id

    def test_forget_reopens_election(self, pair_deployment):
        deployment = pair_deployment
        members = deployment.role_map.members("cell")
        expected = max(node_id for node_id, _ in members)
        other = next(node_id for node_id, _ in members if node_id != expected)
        protocol = deployment.network.node(other).protocol(LAYER_PORT_SELECTION)
        protocol.forget(expected)
        # The node re-proposes itself immediately (lowest available belief).
        assert protocol.manager_of("gate") is not None
        assert protocol.manager_of("gate") != expected


def stack_of(**protocols):
    """A node stand-in running ``protocols`` (layer label -> instance)."""
    return SimpleNamespace(
        has_protocol=protocols.__contains__, protocol=protocols.__getitem__
    )


def selection_peers(*members, dead=()):
    """The peer seam of a world whose nodes run exactly the given
    ``PortSelection`` instances: what the layer's failure detection reads
    of its peers."""
    by_id = {m.node_id: m for m in members}
    return SimpleNamespace(
        is_alive=lambda node_id: node_id in by_id and node_id not in dead,
        profile=lambda node_id, layer: by_id[node_id].profile,
    )


def absorb_ctx(counted, peers=None):
    """Everybody alive unless ``peers`` says otherwise; ``counted``
    collects the keyed increments (``None``: unobserved)."""
    return SimpleNamespace(
        peers=peers or SimpleNamespace(is_alive=lambda node_id: True),
        obs=None if counted is None else counting_obs(counted),
    )


class TestPortLayerChurn:
    """``descriptor_churn`` counts the received entries that changed the
    table — the numerator of the ledger's ``useful_descriptor_ratio``."""

    def test_port_selection_counts_adopted_beliefs(self):
        ports = (PortSpec("west"), PortSpec("east", HighestIdSelector()))
        protocol = PortSelection(5, NodeProfile("home", 1, 4, 0), ports)
        assert protocol.beliefs == {"west": (5, 1), "east": (5, 1)}
        received = {
            "west": (3, 0),  # a lower id: adopted
            "east": (4, 2),  # east elects the highest: kept as it is
            "north": (1, 0),  # not a port of this component
        }
        peers = selection_peers(
            protocol, PortSelection(3, NodeProfile("home", 0, 4, 0), ports)
        )
        counted = []
        protocol._absorb(absorb_ctx(counted, peers), None, received)
        assert protocol.beliefs == {"west": (3, 0), "east": (5, 1)}
        assert counted == [(("descriptor_churn", "port_selection"), 1)]
        protocol._absorb(absorb_ctx(counted, peers), None, received)  # nothing new
        assert len(counted) == 1
        unobserved = PortSelection(5, NodeProfile("home", 1, 4, 0), ports)
        unobserved._absorb(absorb_ctx(None, peers), None, received)
        assert unobserved.beliefs == protocol.beliefs

    def test_port_connection_counts_adopted_bindings(self):
        here, there = PortRef("home", "east"), PortRef("away", "west")
        link = LinkSpec(here, there)
        protocol = PortConnection(5, NodeProfile("home", 1, 4, 0), (link,))
        protocol.bindings[here] = (3, 0)
        received = {
            here: (3, 2),  # older than the copy held
            there: (40, 1),  # unknown so far: adopted
            PortRef("far", "west"): (7, 0),  # none of this component's links
            PortRef("away", "east"): (9, protocol.binding_ttl + 1),
        }
        counted = []
        protocol._absorb(absorb_ctx(counted), None, received)
        assert protocol.bindings == {here: (3, 0), there: (40, 1)}
        assert counted == [(("descriptor_churn", "port_connection"), 1)]
        protocol._absorb(absorb_ctx(counted), None, {there: (40, 0)})  # a refresh
        assert counted[1:] == [(("descriptor_churn", "port_connection"), 1)]
        protocol._absorb(absorb_ctx(counted), None, received)  # nothing new
        assert len(counted) == 2


class TestPortSelectionSeeding:
    """Node 5 of ``home`` elects ``west : rank(0)``. Node 7 holds rank 0;
    node 3 held it before a rebalance moved it to rank 2, and descriptors
    saying otherwise are still around — on the lower id, so every unchecked
    merge prefers them."""

    PORTS = (PortSpec("west", RankSelector(0)),)

    def member(self, node_id, rank):
        return PortSelection(node_id, NodeProfile("home", rank, 4, 0), self.PORTS)

    def ctx(self, protocol, *sightings):
        """``protocol``'s own context, its UO1 view holding ``sightings`` —
        ``(node_id, component, rank)`` as the descriptors claim them."""
        uo1 = SameComponentOverlay(protocol.node_id, protocol.profile)
        for node_id, component, rank in sightings:
            uo1.view.insert(Descriptor(node_id, 0, NodeProfile(component, rank, 4, 0)))
        return SimpleNamespace(
            node=stack_of(uo1=uo1),
            peers=selection_peers(protocol, self.member(7, 0), self.member(3, 2)),
            obs=None,
        )

    def test_a_ranked_sibling_descriptor_seeds_the_belief(self):
        protocol = self.member(5, 1)
        assert protocol.beliefs == {}
        protocol._begin_round(self.ctx(protocol, (6, "home", 3), (7, "home", 0)))
        assert protocol.beliefs == {"west": (7, 0)}

    def test_only_members_of_this_component_are_candidates(self):
        protocol = self.member(5, 1)
        protocol._begin_round(self.ctx(protocol, (7, "away", 0)))
        assert protocol.beliefs == {}

    def test_a_stale_rank_neither_displaces_nor_deletes_the_belief(self):
        protocol = self.member(5, 1)
        protocol.beliefs["west"] = (7, 0)
        ctx = self.ctx(protocol, (3, "home", 0))
        for _ in range(3):
            assert protocol._begin_round(ctx)
            assert protocol.beliefs == {"west": (7, 0)}

    def test_a_stale_rank_does_not_seed_an_empty_table_either(self):
        protocol = self.member(5, 1)
        protocol._begin_round(self.ctx(protocol, (3, "home", 0)))
        assert protocol.beliefs == {}

    def test_a_received_belief_naming_a_reassigned_node_is_refused(self):
        protocol = self.member(5, 1)
        protocol.beliefs["west"] = (7, 0)
        ctx = self.ctx(protocol)
        counted = []
        ctx.obs = counting_obs(counted)
        protocol._absorb(ctx, None, {"west": (3, 0)})
        assert protocol.beliefs == {"west": (7, 0)} and not counted
        protocol._validate_beliefs(ctx)
        assert protocol.beliefs == {"west": (7, 0)}
        protocol.beliefs.clear()
        protocol._absorb(ctx, None, {"west": (3, 0)})  # nor into an empty table
        assert protocol.beliefs == {}


class TestPortConnectionPartner:
    """Node 5 of ``home``: ``east`` links to ``away``, ``west`` to ``back``;
    UO1 knows 6 and 8, UO2 one contact in each linked component."""

    LINKS = (
        LinkSpec(PortRef("home", "east"), PortRef("away", "west")),
        LinkSpec(PortRef("back", "east"), PortRef("home", "west")),
    )

    def candidates(self, round_number, managers, contacts):
        """The pool the partner rule draws from, given who node 5 believes
        manages ``home``'s ports and the foreign ``contacts`` it holds."""
        protocol = PortConnection(5, NodeProfile("home", 1, 4, 0), self.LINKS)
        uo1 = SameComponentOverlay(5, protocol.profile)
        for node_id in (6, 8):
            uo1.view.insert(Descriptor(node_id, 0, NodeProfile("home", 0, 4, 0)))
        drawn = []
        ctx = SimpleNamespace(
            round=round_number,
            rng=lambda: SimpleNamespace(choice=lambda pool: drawn.append(pool) or pool[0]),
            node=stack_of(
                port_selection=SimpleNamespace(manager_of=managers.get),
                uo1=uo1,
                uo2=bare_uo2(contacts, node_id=5),
            ),
            peers=SimpleNamespace(
                is_alive=lambda node_id: True, runs=lambda node_id, layer: True
            ),
        )
        assert protocol._choose_partner(ctx) == drawn[0][0]
        return drawn[0]

    BOTH = (("away", 40, 0), ("back", 30, 0))

    @pytest.mark.parametrize("round_number", [0, 1, 2, 3])
    def test_a_manager_gossips_across_its_own_link_every_round(self, round_number):
        managers = {"east": 5, "west": 9}
        assert self.candidates(round_number, managers, self.BOTH) == [40]
        managers = {"east": 9, "west": 5}
        assert self.candidates(round_number, managers, self.BOTH) == [30]

    def test_a_non_manager_alternates(self):
        managers = {"east": 9, "west": 9}
        assert self.candidates(0, managers, self.BOTH) == [6, 8]
        assert self.candidates(1, managers, self.BOTH) == [40, 30]
        assert self.candidates(1, {}, self.BOTH) == [40, 30]  # no belief yet

    def test_a_manager_without_a_contact_across_its_link_falls_back(self):
        managers = {"east": 5, "west": 9}
        only_back = (("back", 30, 0),)
        assert self.candidates(0, managers, only_back) == [6, 8]
        assert self.candidates(1, managers, only_back) == [30]


class TestPortConnection:
    def test_link_realized_between_oracle_managers(self, pair_deployment):
        deployment = pair_deployment
        ring_members = deployment.role_map.members("ring")
        cell_members = deployment.role_map.members("cell")
        ring_manager = min(node_id for node_id, _ in ring_members)
        cell_manager = max(node_id for node_id, _ in cell_members)
        ring_protocol = deployment.network.node(ring_manager).protocol(
            LAYER_PORT_CONNECTION
        )
        cell_protocol = deployment.network.node(cell_manager).protocol(
            LAYER_PORT_CONNECTION
        )
        assert ring_protocol.binding_for(PortRef("cell", "gate")) == cell_manager
        assert cell_protocol.binding_for(PortRef("ring", "gate")) == ring_manager

    def test_realized_links_reported(self, pair_deployment):
        deployment = pair_deployment
        ring_manager = min(
            node_id for node_id, _ in deployment.role_map.members("ring")
        )
        protocol = deployment.network.node(ring_manager).protocol(
            LAYER_PORT_CONNECTION
        )
        realized = protocol.realized_links()
        assert len(realized) == 1
        link, local_manager, remote_manager = realized[0]
        assert local_manager == ring_manager
        assert remote_manager in deployment.role_map.member_ids("cell")
        assert protocol.neighbors() == [remote_manager]

    def test_bindings_age_and_expire(self, pair_deployment):
        deployment = pair_deployment
        node = next(deployment.network.alive_nodes())
        protocol = node.protocol(LAYER_PORT_CONNECTION)
        ttl = protocol.binding_ttl
        ref = PortRef("ring", "gate")
        protocol.bindings[ref] = (999, ttl)  # one step from expiry
        protocol._age_and_expire()
        assert ref not in protocol.bindings or protocol.bindings[ref][0] != 999
