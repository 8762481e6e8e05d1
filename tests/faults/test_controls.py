"""Tests for the fault builders (:mod:`repro.faults.schedule`) run through
``apply`` and the schedule's executor."""

from __future__ import annotations

import random

import pytest

from repro import Runtime
from repro.errors import ConfigurationError
from repro.experiments.topologies import ring_of_rings
from repro.faults.schedule import (
    FaultSchedule,
    apply,
    link_degradation,
    partition,
    pause_resume,
    zone_outage,
)
from repro.faults.transports import LinkQuality
from repro.faults.zones import ZoneMap


def make_deployment(count=8, zones=None, faults=True):
    """A small ring-of-rings deployment (extras are spares), armed with
    faults over ``zones`` unless ``faults`` is false."""
    deployment = Runtime(ring_of_rings(n_rings=2, ring_size=4), seed=0).deploy(count)
    if faults:
        deployment.install_faults(zones)
    return deployment


def zoned(count=8):
    ids = range(count)
    return make_deployment(count, zones=ZoneMap.round_robin(ids, ["za", "zb"]))


def views(deployment):
    return {
        node.node_id: list(node.protocol("peer_sampling").view)
        for node in deployment.network.nodes()
        if len(node.protocol("peer_sampling").view)
    }


def heal_events(faults):
    return [event for event in faults.events if event.kind == "heal"]


class TestPartitionValidation:
    def test_window(self):
        deployment = make_deployment()
        with pytest.raises(ConfigurationError):
            partition(deployment, at_round=-1, heal_round=5)
        with pytest.raises(ConfigurationError):
            partition(deployment, at_round=5, heal_round=5)

    def test_rendezvous_validation(self):
        with pytest.raises(ConfigurationError):
            partition(make_deployment(), at_round=0, heal_round=5, rendezvous=-1)

    def test_needs_the_fault_plane(self):
        with pytest.raises(ConfigurationError, match="faults installed"):
            partition(make_deployment(faults=False), at_round=0, heal_round=5)


class TestPartitionLifecycle:
    def test_fires_and_heals_on_schedule(self):
        deployment = make_deployment(8)
        faults = deployment.faults
        partition(
            deployment, at_round=1, heal_round=3, rendezvous=0
        ).arm(deployment)
        deployment.run(1)
        assert not faults.partition_active
        deployment.run(1)
        assert faults.partition_active
        assert str(faults.events[0]) == "r1 partition (islands=[4, 4])"
        assert sum(faults.partitioned(0, other) for other in range(8)) == 4
        deployment.run(1)
        assert faults.partition_active
        deployment.run(1)
        assert not faults.partition_active
        assert [str(event) for event in faults.events] == [
            "r1 partition (islands=[4, 4])",
            "r3 heal (partition merged (rendezvous=0))",
        ]

    def test_rendezvous_seeds_cross_island_contacts(self):
        # Two live nodes per island re-bootstrap from the rendezvous: each
        # draws gossip_size fresh contacts from the whole registered
        # population, so contacts can land across the former cut (and do
        # for this seed), but no cross-island contact is guaranteed.
        deployment = make_deployment(10)
        faults, network = deployment.faults, deployment.network
        cut, heal = partition(
            deployment, at_round=0, heal_round=2, rendezvous=2
        )
        apply(cut, deployment)
        pairs = {(a, b) for a in range(10) for b in range(10) if faults.partitioned(a, b)}
        for node in network.nodes():  # a long cut: nothing left to gossip with
            node.protocol("peer_sampling").view.clear()
        network.kill(9)
        apply(heal, deployment)
        seeded = views(deployment)
        assert 9 not in seeded  # only live members re-contact
        # Two re-contacting nodes per island (island = "cut off from node 0").
        assert sorted((0, node_id) in pairs for node_id in seeded) == [
            False, False, True, True,
        ]
        for node_id, contacts in seeded.items():
            params = network.node(node_id).protocol("peer_sampling").params
            assert len(contacts) == params.gossip_size
            assert node_id not in {d.node_id for d in contacts}
            assert all(descriptor.age == 0 for descriptor in contacts)
        assert any(
            (node_id, descriptor.node_id) in pairs
            for node_id, contacts in seeded.items()
            for descriptor in contacts
        )
        assert "rendezvous=4" in heal_events(faults)[0].detail

    def test_rendezvous_zero_leaves_views_untouched(self):
        deployment = make_deployment(8)
        before = views(deployment)
        for event in partition(
            deployment, at_round=0, heal_round=1, rendezvous=0
        ):
            apply(event, deployment)
        assert views(deployment) == before
        assert "rendezvous=0" in heal_events(deployment.faults)[0].detail

    def test_heal_is_idempotent_under_double_fire(self):
        # Every event applies exactly once: re-entering the executor at or
        # after the heal's round (a second fire) changes nothing.
        deployment = make_deployment(10)
        network = deployment.network
        schedule = partition(
            deployment, at_round=0, heal_round=2, rendezvous=2
        )
        executor = schedule.arm(deployment)
        executor.before_round(network, 0)
        for node in network.nodes():
            node.protocol("peer_sampling").view.clear()
        executor.before_round(network, 2)
        seeded = views(deployment)
        assert len(seeded) == 4  # 2 per island
        assert executor.applied == len(schedule)
        executor.before_round(network, 2)
        executor.before_round(network, 6)
        assert views(deployment) == seeded  # no second re-contact
        assert len(heal_events(deployment.faults)) == 1
        assert not deployment.faults.partition_active

    def test_heal_without_a_cut_is_rejected(self):
        with pytest.raises(ConfigurationError, match="no cut"):
            FaultSchedule([(0, "heal", (2,))])
        cut = (0, "cut", (((0, 1), (2, 3)),))
        with pytest.raises(ConfigurationError, match="no cut"):
            FaultSchedule([cut, (1, "heal", (2,)), (2, "heal", (2,))])
        with pytest.raises(ConfigurationError, match="no cut"):
            FaultSchedule([(1, "heal", (2,)), (3, "cut", (((0, 1), (2, 3)),))])


class TestZoneOutage:
    def test_needs_zone_map(self):
        with pytest.raises(ConfigurationError, match="ZoneMap"):
            zone_outage(make_deployment(), zone="za", at_round=0)
        with pytest.raises(ConfigurationError, match="ZoneMap"):
            zone_outage(make_deployment(faults=False), zone="za", at_round=0)

    def test_mode_validation(self):
        deployment = zoned()
        with pytest.raises(ConfigurationError):
            zone_outage(deployment, zone="za", at_round=0, mode="explode")
        with pytest.raises(ConfigurationError):
            zone_outage(deployment, zone="za", at_round=0, mode="pause")
        with pytest.raises(ConfigurationError):
            zone_outage(deployment, zone="za", at_round=0, mode="kill", restore_round=5)
        with pytest.raises(ConfigurationError):
            zone_outage(deployment, zone="zq", at_round=0)

    def test_kill_takes_whole_zone_down(self):
        deployment = zoned(8)
        network = deployment.network
        schedule = zone_outage(deployment, zone="za", at_round=2, mode="kill")
        assert list(schedule) == [(2, "kill", ((0, 2, 4, 6), "za"))]
        schedule.arm(deployment)
        deployment.run(2)
        assert network.alive_count() == 8
        deployment.run(1)
        assert network.alive_count() == 4
        assert all(network.is_alive(node_id) for node_id in (1, 3, 5, 7))
        assert [str(event) for event in deployment.faults.events] == [
            "r2 zone_kill (zone=za victims=4)"
        ]

    def test_pause_revives_zombies(self):
        deployment = zoned(8)
        network = deployment.network
        zone_outage(
            deployment, zone="zb", at_round=0, mode="pause", restore_round=3
        ).arm(deployment)
        deployment.run(1)
        assert network.alive_count() == 4
        deployment.run(3)
        assert network.alive_count() == 8
        assert [str(event) for event in deployment.faults.events] == [
            "r0 zone_pause (zone=zb victims=4)",
            "r3 zone_restore (zone=zb revived=4)",
        ]


class TestPauseResume:
    def test_fraction_validation(self):
        for fraction in (0.0, 1.0):
            with pytest.raises(ConfigurationError):
                pause_resume(
                    make_deployment(), random.Random(0),
                    at_round=0, resume_round=5, fraction=fraction,
                )
        with pytest.raises(ConfigurationError):
            pause_resume(
                make_deployment(), random.Random(0),
                at_round=5, resume_round=5, fraction=0.5,
            )

    def test_pause_then_resume(self):
        deployment = make_deployment(20)
        network = deployment.network
        schedule = pause_resume(
            deployment, random.Random(1), at_round=1, resume_round=4, fraction=0.5
        )
        paused = schedule[0].args[0]
        assert len(paused) == 10
        schedule.arm(deployment)
        deployment.run(2)
        assert network.alive_count() == 10
        network.revive(paused[0])  # back early: the resume does not count it
        deployment.run(3)
        assert network.alive_count() == 20
        assert [str(event) for event in deployment.faults.events] == [
            "r1 pause (paused=10)",
            "r4 resume (revived=9)",
        ]

    def test_min_population_caps_pause(self):
        # At least MIN_UNPAUSED (8) nodes stay up.
        deployment = make_deployment(10)
        for event in pause_resume(
            deployment, random.Random(1), at_round=0, resume_round=5, fraction=0.9
        )[:1]:
            apply(event, deployment)
        assert deployment.network.alive_count() == 8


class TestLinkDegradation:
    def test_needs_a_scope(self):
        with pytest.raises(ConfigurationError):
            link_degradation(
                zoned(), at_round=0, quality=LinkQuality(loss=0.5), zone_pairs=[],
            )

    def test_installs_and_restores_rules(self):
        deployment = zoned(8)
        faults = deployment.faults
        link_degradation(
            deployment,
            at_round=1,
            quality=LinkQuality(loss=0.5, latency=0.2),
            zone_pairs=[("za", "zb")],
            restore_round=4,
        ).arm(deployment)
        deployment.run(1)
        assert not faults.active
        deployment.run(1)
        assert faults.quality(0, 1).loss == 0.5  # za <-> zb
        assert faults.quality(7, 2).loss == 0.5
        assert faults.quality(0, 2) is None  # within za
        deployment.run(3)
        assert not faults.active
        assert faults.quality(0, 1) is None
        assert [str(event) for event in faults.events] == [
            "r1 degrade (zone_pairs=[('za', 'zb')] loss=0.5 latency=0.2)",
            "r4 restore (zone_pairs=[('za', 'zb')])",
        ]

    def test_each_zone_pair_is_one_rule(self):
        # Several pairs are one link (and one unlink) event each; the zone
        # pair is unordered, so ("zb", "za") is the pair ("za", "zb").
        deployment = zoned(8)
        schedule = link_degradation(
            deployment, at_round=0, quality=LinkQuality(loss=1.0),
            zone_pairs=[("za", "za"), ("zb", "za")], restore_round=2,
        )
        assert [event.op for event in schedule] == ["link", "link", "unlink", "unlink"]
        for event in schedule[:2]:
            apply(event, deployment)
        faults = deployment.faults
        assert faults.quality(0, 2).loss == 1.0 and faults.quality(1, 0).loss == 1.0
        assert faults.quality(1, 3) is None  # within zb
        for event in schedule[2:]:
            apply(event, deployment)
        assert not faults.active
