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
from repro.core.layers.uo2 import DistantComponentOverlay
from repro.core.link import PortRef
from repro.core.profiles import NodeProfile
from repro.dsl import TopologyBuilder
from repro.experiments.topologies import ring_of_rings
from repro.gossip.descriptors import Descriptor
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


def bare_uo2(contacts, node_id=0, capacity=2, gossip_contacts=8):
    """A UO2 instance outside any deployment, holding ``contacts`` — an
    iterable of ``(component, node_id, age)``."""
    protocol = DistantComponentOverlay(
        node_id, NodeProfile("home", 0, 4, 0), capacity, gossip_contacts
    )
    for component, contact_id, age in contacts:
        protocol._insert(
            Descriptor(contact_id, age, NodeProfile(component, contact_id % 4, 4, 0))
        )
    return protocol


def full_buckets(n_components):
    """Two contacts in each of ``n_components`` foreign components."""
    return [
        (f"c{c:02d}", 100 + 2 * c + i, (c + i) % 3)
        for c in range(n_components)
        for i in range(2)
    ]


def offer(protocol, round_number, passive=False):
    request = ExchangeRequest(protocol.layer, 999, []) if passive else None
    buffer, kept = protocol._offer(
        SimpleNamespace(round=round_number), None, 999, request
    )
    assert kept is None
    return buffer


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
            network = SimpleNamespace(
                is_alive=lambda node_id: node_id not in dead,
                node=lambda node_id: SimpleNamespace(
                    has_protocol=lambda layer: node_id not in without_layer
                ),
            )
            ctx = SimpleNamespace(
                round=1,  # odd: the foreign-contact turn
                rng=lambda: rng,
                network=network,
                node=SimpleNamespace(has_protocol=lambda layer: False),
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

    @pytest.mark.parametrize("seed", [7, 11])
    def test_keeps_pace_with_uo1_past_the_message_budget(self, seed):
        """Fig. 3's knee: 19 foreign components for 7 slots. With a fixed
        round-robin start UO2 took 14 rounds here against UO1's 8-9."""
        deployment = Runtime(ring_of_rings(n_rings=20, ring_size=6), seed=seed).deploy(120)
        report = deployment.run_until_converged(60)
        assert report.converged, report.rounds
        assert report.rounds[LAYER_UO2] <= report.rounds[LAYER_UO1] + 2, report.rounds


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
        assert protocol.is_manager_of("gate")

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
