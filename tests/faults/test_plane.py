"""Tests for the fault plane the FaultTransport decorator owns: link rules,
partitions, exchange accounting and the event log."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro import Runtime
from repro.errors import ConfigurationError
from repro.experiments.topologies import ring_of_rings
from repro.faults.schedule import link_degradation, split_islands
from repro.faults.transports import FaultTransport, LinkQuality
from repro.faults.zones import ZoneMap
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport


def make_faults(zones=None):
    """A fault transport over a plain ledger; returns ``(ledger, faults)``."""
    ledger = Transport()
    return ledger, FaultTransport(ledger, RandomStreams(0), zones)


def armed(zones=None):
    """A small deployment with the fault plane over ``zones``; returns
    ``(deployment, faults)``."""
    deployment = Runtime(ring_of_rings(n_rings=2, ring_size=4), seed=0).deploy()
    return deployment, deployment.install_faults(zones)


def one_zone_per_node(ids):
    return ZoneMap.round_robin(ids, [f"n{nid}" for nid in sorted(ids)])


class TestLinkQuality:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinkQuality(loss=1.5)
        with pytest.raises(ConfigurationError):
            LinkQuality(loss=-0.1)
        with pytest.raises(ConfigurationError):
            LinkQuality(latency=-1.0)


class TestLinkRules:
    def test_no_rule_is_a_perfect_link(self):
        _, faults = make_faults(ZoneMap.round_robin(range(4), ["za", "zb"]))
        assert faults.quality(1, 2) is None
        assert not faults.active

    def test_zone_pair_rule_is_symmetric_and_zone_wide(self):
        zones = ZoneMap.round_robin(range(4), ["za", "zb"])
        _, faults = make_faults(zones)
        faults.set_link("za", "zb", LinkQuality(loss=0.3))
        assert faults.active
        assert faults.quality(0, 1).loss == 0.3
        assert faults.quality(3, 2).loss == 0.3  # zb -> za
        assert faults.quality(0, 2) is None  # within za: no rule
        faults.set_link("za", "za", LinkQuality(latency=0.2))
        assert faults.quality(0, 2).latency == 0.2

    def test_zone_rule_needs_zone_map(self):
        # Without a zone map the rule could match nothing: rejected.
        deployment, faults = armed()
        with pytest.raises(ConfigurationError, match="ZoneMap"):
            faults.set_link("za", "zb", LinkQuality(loss=0.3))
        with pytest.raises(ConfigurationError, match="ZoneMap"):
            link_degradation(
                deployment, at_round=0, quality=LinkQuality(loss=1.0),
                zone_pairs=[("za", "zb")],
            )
        assert not faults.active and faults.events == []

    def test_unknown_zone_rejected(self):
        # A rule naming a zone the map lacks would degrade 0 links.
        deployment, faults = armed(ZoneMap.round_robin(range(8), ["za", "zb"]))
        with pytest.raises(ConfigurationError, match="zq"):
            faults.set_link("za", "zq", LinkQuality(loss=1.0))
        with pytest.raises(ConfigurationError, match="zq"):
            link_degradation(
                deployment, at_round=0, quality=LinkQuality(loss=1.0),
                zone_pairs=[("za", "zq")],
            )
        assert not faults.active and faults.events == []

    def test_one_node_zone_degrades_one_node(self):
        _, faults = make_faults(one_zone_per_node(range(4)))
        for other in range(4):
            faults.set_link("n1", f"n{other}", LinkQuality(loss=0.5))
        assert faults.quality(1, 3).loss == 0.5
        assert faults.quality(2, 1).loss == 0.5
        assert faults.quality(2, 3) is None

    def test_clear_rules(self):
        _, faults = make_faults(ZoneMap.round_robin(range(4), ["za", "zb"]))
        faults.set_link("za", "zb", LinkQuality(loss=0.9))
        faults.set_link("zb", "zb", LinkQuality(loss=0.9))
        assert faults.active
        faults.clear_link("zb", "za")
        faults.clear_link("zb", "zb")
        assert not faults.active
        assert faults.quality(0, 1) is None


class TestPartition:
    def test_set_and_clear(self):
        _, faults = make_faults()
        assert not faults.partitioned(1, 2)
        faults.set_partition({1: 0, 2: 1, 3: 0})
        assert faults.partition_active
        assert faults.partitioned(1, 2)
        assert not faults.partitioned(1, 3)
        faults.clear_partition()
        assert not faults.partition_active
        assert not faults.partitioned(1, 2)

    def test_unmapped_nodes_are_unrestricted(self):
        _, faults = make_faults()
        faults.set_partition({1: 0, 2: 1})
        # Node 9 joined mid-partition: it can talk to both islands.
        assert not faults.partitioned(9, 1)
        assert not faults.partitioned(2, 9)

    def test_empty_mapping_rejected(self):
        with pytest.raises(ConfigurationError):
            make_faults()[1].set_partition({})

    def test_active_short_circuit(self):
        _, faults = make_faults(ZoneMap.round_robin(range(4), ["za", "zb"]))
        assert not faults.active
        faults.set_partition({1: 0, 2: 1})
        assert faults.active
        faults.clear_partition()
        assert not faults.active
        faults.set_link("za", "zb", LinkQuality(loss=0.5))
        assert faults.active


def context(node_id, layer=""):
    """The two fields the decorator reads off a round context."""
    return SimpleNamespace(node=SimpleNamespace(node_id=node_id), layer=layer)


class TestExchangeOk:
    def test_partition_drop_is_accounted(self):
        ledger, faults = make_faults()
        faults.set_partition({1: 0, 2: 1})
        assert not faults.deliverable(context(1), 2, layer="uo1")
        assert not faults.reachable(context(1), 2)
        assert faults.deliverable(context(1), 1, layer="uo1")
        assert ledger.drop_reasons() == {"partition": 1}

    def test_total_loss_always_drops(self):
        ledger, faults = make_faults(one_zone_per_node(range(4)))
        faults.set_link("n1", "n2", LinkQuality(loss=1.0))
        for _ in range(20):
            assert not faults.deliverable(context(1, "core"), 2)
        assert ledger.drop_reasons() == {"loss": 20}
        assert faults.reachable(context(1), 2)  # loss is not a cut

    def test_latency_beyond_timeout_drops(self):
        ledger, faults = make_faults(one_zone_per_node(range(4)))
        faults.set_link("n1", "n2", LinkQuality(latency=1.0))
        assert not faults.deliverable(context(1), 2, layer="core")
        assert ledger.drop_reasons() == {"timeout": 1}

    def test_sub_timeout_latency_delays_but_delivers(self):
        ledger, faults = make_faults(one_zone_per_node(range(4)))
        faults.set_link("n1", "n2", LinkQuality(latency=0.4))
        assert faults.deliverable(context(1), 2, layer="core")
        assert ledger.total_delayed("core") == 1
        assert ledger.drop_reasons() == {}


class TestEventLog:
    def test_record_and_filter(self):
        _, faults = make_faults()
        faults.record_event(3, "partition", "islands=[2, 2]")
        faults.record_event(9, "heal")
        assert [event.kind for event in faults.events] == ["partition", "heal"]
        assert faults.events[1].round == 9
        assert "r3 partition" in str(faults.events[0])


class TestSplits:
    def test_split_islands_near_equal(self):
        mapping = split_islands(list(range(11)), random.Random(1))
        sizes = sorted(
            sum(1 for island in mapping.values() if island == k) for k in range(2)
        )
        assert sizes == [5, 6]
        assert set(mapping) == set(range(11))

    def test_split_islands_validation(self):
        with pytest.raises(ConfigurationError):
            split_islands([1], random.Random(0))
        with pytest.raises(ConfigurationError):
            split_islands([], random.Random(0))
