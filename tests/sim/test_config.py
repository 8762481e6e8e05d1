"""Tests for configuration validation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.config import GossipParams


class TestGossipParams:
    def test_defaults_valid(self):
        params = GossipParams()
        assert params.view_size >= params.gossip_size - 1

    def test_view_size_minimum(self):
        with pytest.raises(ConfigurationError):
            GossipParams(view_size=0)

    def test_gossip_size_bounds(self):
        with pytest.raises(ConfigurationError):
            GossipParams(view_size=4, gossip_size=0)
        with pytest.raises(ConfigurationError):
            GossipParams(view_size=4, gossip_size=6)
        GossipParams(view_size=4, gossip_size=5, healer=0, swapper=0)  # C+1 allowed

    def test_negative_healer_swapper(self):
        with pytest.raises(ConfigurationError):
            GossipParams(healer=-1)
        with pytest.raises(ConfigurationError):
            GossipParams(swapper=-1)

    def test_healer_plus_swapper_bounded_by_view(self):
        with pytest.raises(ConfigurationError):
            GossipParams(view_size=4, gossip_size=2, healer=3, swapper=2)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            GossipParams().view_size = 99  # type: ignore[misc]
