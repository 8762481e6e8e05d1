"""Tests for the fault-injection controls."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.faults.controls import (
    LinkDegradation,
    Partition,
    PauseResume,
    ZoneOutage,
)
from repro.faults.transports import FaultTransport, LinkQuality
from repro.faults.zones import ZoneMap
from repro.gossip.peer_sampling import PeerSampling
from repro.sim.config import GossipParams
from repro.sim.network import Network
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport


#: Peer-sampling parameters of the rendezvous tests: each re-contact
#: draws ``gossip_size`` contacts.
PARAMS = GossipParams(view_size=8, gossip_size=3, healer=1, swapper=3)


def make_faults(zones=None):
    """The fault state the controls drive: a decorator over a plain ledger."""
    return FaultTransport(Transport(), RandomStreams(0), zones)


def make_network(count, with_views=False):
    net = Network()
    for node in net.create_nodes(count):
        if with_views:
            node.attach("peer_sampling", PeerSampling(node.node_id, PARAMS))
    return net


def heal_events(faults):
    return [event for event in faults.events if event.kind == "heal"]


class TestPartitionValidation:
    def test_window(self):
        faults = make_faults()
        with pytest.raises(ConfigurationError):
            Partition(faults, at_round=-1, heal_round=5, rng=random.Random(0))
        with pytest.raises(ConfigurationError):
            Partition(faults, at_round=5, heal_round=5, rng=random.Random(0))

    def test_rendezvous_validation(self):
        with pytest.raises(ConfigurationError):
            Partition(
                make_faults(), at_round=0, heal_round=5,
                rng=random.Random(0), rendezvous=-1,
            )


class TestPartitionLifecycle:
    def test_fires_and_heals_on_schedule(self):
        faults = make_faults()
        net = make_network(8)
        control = Partition(
            faults, at_round=1, heal_round=3, rng=random.Random(0), rendezvous=0
        )
        control.before_round(net, 0)
        assert not control.fired and not faults.partition_active
        control.before_round(net, 1)
        assert control.fired and not control.healed
        assert faults.partition_active
        assert faults.events[0].detail == "islands=[4, 4]"
        assert sum(faults.partitioned(0, other) for other in range(8)) == 4
        control.before_round(net, 2)
        assert faults.partition_active
        control.before_round(net, 3)
        assert control.healed
        assert not faults.partition_active
        assert [event.kind for event in faults.events] == ["partition", "heal"]

    def test_rendezvous_seeds_cross_island_contacts(self):
        # Two live nodes per island re-bootstrap from the rendezvous: each
        # draws gossip_size fresh contacts from the whole registered
        # population, so contacts can land across the former cut (and do
        # for this seed), but no cross-island contact is guaranteed.
        faults = make_faults()
        net = make_network(10, with_views=True)
        control = Partition(
            faults, at_round=0, heal_round=2, rng=random.Random(3), rendezvous=2
        )
        control.before_round(net, 0)
        cut = {
            (a, b) for a in range(10) for b in range(10) if faults.partitioned(a, b)
        }
        net.kill(9)
        control.before_round(net, 2)
        views = {
            node.node_id: list(node.protocol("peer_sampling").view)
            for node in net.nodes()
            if len(node.protocol("peer_sampling").view)
        }
        assert 9 not in views  # only live members re-contact
        # Two re-contacting nodes per island (island = "cut off from node 0").
        assert sorted((0, node_id) in cut for node_id in views) == [
            False, False, True, True,
        ]
        for node_id, contacts in views.items():
            assert len(contacts) == PARAMS.gossip_size
            assert node_id not in {d.node_id for d in contacts}
            assert all(descriptor.age == 0 for descriptor in contacts)
        assert any(
            (node_id, descriptor.node_id) in cut
            for node_id, contacts in views.items()
            for descriptor in contacts
        )
        assert "rendezvous=4" in heal_events(faults)[0].detail

    def test_rendezvous_zero_leaves_views_untouched(self):
        faults = make_faults()
        net = make_network(6, with_views=True)
        control = Partition(
            faults, at_round=0, heal_round=1, rng=random.Random(0), rendezvous=0
        )
        control.before_round(net, 0)
        control.before_round(net, 1)
        assert all(
            len(node.protocol("peer_sampling").view) == 0 for node in net.nodes()
        )
        assert "rendezvous=0" in heal_events(faults)[0].detail

    def test_heal_is_idempotent_under_double_fire(self):
        # A remediation engine may drive the heal path again after the
        # scheduled heal already ran; the second call must change nothing.
        faults = make_faults()
        net = make_network(10, with_views=True)
        control = Partition(
            faults, at_round=0, heal_round=2, rng=random.Random(3), rendezvous=2
        )
        control.before_round(net, 0)
        control.before_round(net, 2)
        seeded = {
            node.node_id: sorted(node.protocol("peer_sampling").view.ids())
            for node in net.nodes()
        }
        assert sum(1 for ids in seeded.values() if ids) == 4  # 2 per island
        assert control.heal(net, 5) == 0  # direct re-invocation: no-op
        control.before_round(net, 6)  # schedule path re-entered: still no-op
        after = {
            node.node_id: sorted(node.protocol("peer_sampling").view.ids())
            for node in net.nodes()
        }
        assert after == seeded  # no second re-contact
        assert len(heal_events(faults)) == 1
        assert not faults.partition_active

    def test_heal_before_fire_is_a_no_op(self):
        faults = make_faults()
        net = make_network(6, with_views=True)
        control = Partition(
            faults, at_round=5, heal_round=8, rng=random.Random(0), rendezvous=2
        )
        assert control.heal(net, 0) == 0  # nothing fired yet
        assert faults.events == []


class TestZoneOutage:
    def make_zone_faults(self, count=8):
        net = make_network(count)
        zones = ZoneMap.round_robin(net.node_ids(), ["za", "zb"])
        return net, make_faults(zones=zones)

    def test_needs_zone_map(self):
        with pytest.raises(ConfigurationError):
            ZoneOutage(make_faults(), zone="za", at_round=0)

    def test_mode_validation(self):
        _, faults = self.make_zone_faults()
        with pytest.raises(ConfigurationError):
            ZoneOutage(faults, zone="za", at_round=0, mode="explode")
        with pytest.raises(ConfigurationError):
            ZoneOutage(faults, zone="za", at_round=0, mode="pause")
        with pytest.raises(ConfigurationError):
            ZoneOutage(faults, zone="za", at_round=0, mode="kill", restore_round=5)

    def test_kill_takes_whole_zone_down(self):
        net, faults = self.make_zone_faults(8)
        control = ZoneOutage(faults, zone="za", at_round=2, mode="kill")
        control.before_round(net, 0)
        assert net.alive_count() == 8
        control.before_round(net, 2)
        assert control.victims == [0, 2, 4, 6]
        assert net.alive_count() == 4
        assert all(net.is_alive(node_id) for node_id in (1, 3, 5, 7))
        assert [event.kind for event in faults.events] == ["zone_kill"]

    def test_pause_revives_zombies(self):
        net, faults = self.make_zone_faults(8)
        control = ZoneOutage(
            faults, zone="zb", at_round=0, mode="pause", restore_round=3
        )
        control.before_round(net, 0)
        assert net.alive_count() == 4
        control.before_round(net, 3)
        assert net.alive_count() == 8
        assert faults.events[-1].kind == "zone_restore"
        assert faults.events[-1].detail.endswith("revived=4")


class TestPauseResume:
    def test_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            PauseResume(
                make_faults(), random.Random(0),
                at_round=0, resume_round=5, fraction=0.0,
            )

    def test_pause_then_resume(self):
        faults = make_faults()
        net = make_network(20)
        control = PauseResume(
            faults, random.Random(1),
            at_round=1, resume_round=4, fraction=0.5,
        )
        control.before_round(net, 1)
        assert len(control.paused) == 10
        assert net.alive_count() == 10
        control.before_round(net, 4)
        assert net.alive_count() == 20

    def test_min_population_caps_pause(self):
        # At least PauseResume.MIN_UNPAUSED (8) nodes stay up.
        control = PauseResume(
            make_faults(), random.Random(1),
            at_round=0, resume_round=5, fraction=0.9,
        )
        net = make_network(10)
        control.before_round(net, 0)
        assert net.alive_count() == 8


class TestLinkDegradation:
    def test_needs_a_scope(self):
        with pytest.raises(ConfigurationError):
            LinkDegradation(
                make_faults(), at_round=0, quality=LinkQuality(loss=0.5),
                zone_pairs=[],
            )

    def test_installs_and_restores_rules(self):
        zones = ZoneMap.round_robin(range(8), ["za", "zb"])
        faults = make_faults(zones=zones)
        net = make_network(8)
        control = LinkDegradation(
            faults,
            at_round=1,
            quality=LinkQuality(loss=0.5, latency=0.2),
            zone_pairs=[("za", "zb")],
            restore_round=4,
        )
        control.before_round(net, 0)
        assert not faults.active
        control.before_round(net, 1)
        assert faults.quality(0, 1).loss == 0.5  # za <-> zb
        assert faults.quality(7, 2).loss == 0.5
        assert faults.quality(0, 2) is None  # within za
        control.before_round(net, 4)
        assert not faults.active
        assert faults.quality(0, 1) is None
        assert [str(event) for event in faults.events] == [
            "r1 degrade (zone_pairs=[('za', 'zb')] loss=0.5 latency=0.2)",
            "r4 restore (zone_pairs=[('za', 'zb')])",
        ]
