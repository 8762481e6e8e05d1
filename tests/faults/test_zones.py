"""Tests for zone-aware placement."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults.zones import ZoneMap
from repro.sim.network import Network


class TestZoneMap:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZoneMap([])
        with pytest.raises(ConfigurationError):
            ZoneMap(["za", "za"])

    def test_round_robin_stripes_sorted_ids(self):
        zones = ZoneMap.round_robin([3, 0, 1, 2], ["za", "zb"])
        assert zones.zone_of(0) == "za"
        assert zones.zone_of(1) == "zb"
        assert zones.zone_of(2) == "za"
        assert zones.zone_of(3) == "zb"

    def test_unseen_node_gets_deterministic_fallback(self):
        zones = ZoneMap.round_robin([0, 1], ["za", "zb", "zc"])
        assert 99 not in zones
        assert zones.zone_of(99) == zones.zone_names[99 % 3]
        assert 99 in zones  # memoized after first lookup

    def test_members(self):
        zones = ZoneMap.round_robin(range(6), ["za", "zb"])
        assert zones.members("za") == [0, 2, 4]
        assert zones.members("za", node_ids=[0, 1, 2]) == [0, 2]
        with pytest.raises(ConfigurationError):
            zones.members("nope")

    def test_annotate_stamps_attributes(self):
        net = Network()
        net.create_nodes(4)
        zones = ZoneMap.round_robin(net.node_ids(), ["za", "zb"])
        zones.annotate(net)
        assert net.node(0).attributes["zone"] == "za"
        assert net.node(3).attributes["zone"] == "zb"
