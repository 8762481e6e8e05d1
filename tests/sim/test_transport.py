"""Tests for byte-accounted transport."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.config import TransportCosts
from repro.sim.transport import Transport


class TestCosts:
    def test_message_bytes_formula(self):
        costs = TransportCosts(header_bytes=10, descriptor_bytes=5)
        assert costs.message_bytes(0) == 10
        assert costs.message_bytes(4) == 30

    def test_negative_descriptor_count_raises(self):
        with pytest.raises(ConfigurationError):
            TransportCosts().message_bytes(-1)

    def test_negative_costs_raise(self):
        with pytest.raises(ConfigurationError):
            TransportCosts(header_bytes=-1)


class TestAccounting:
    def test_record_message_returns_bytes(self):
        transport = Transport(TransportCosts(header_bytes=16, descriptor_bytes=24))
        assert transport.record_message("layer", 2) == 16 + 48

    def test_record_exchange_counts_both_directions(self):
        transport = Transport(TransportCosts(header_bytes=10, descriptor_bytes=1))
        total = transport.record_exchange("l", 3, 5)
        assert total == (10 + 3) + (10 + 5)
        assert transport.total_messages("l") == 2

    def test_buckets_by_round(self):
        transport = Transport(TransportCosts(header_bytes=1, descriptor_bytes=0))
        transport.begin_round(0)
        transport.record_message("a", 0)
        transport.begin_round(1)
        transport.record_message("a", 0)
        transport.record_message("a", 0)
        assert transport.bytes_series("a", 2) == [1, 2]
        assert transport.total_messages("a") == 3

    def test_buckets_by_layer(self):
        transport = Transport()
        transport.record_message("a", 1)
        transport.record_message("b", 1)
        assert transport.layers() == ["a", "b"]
        assert transport.total_bytes("a") == transport.total_bytes("b")
        assert transport.total_bytes() == transport.total_bytes("a") * 2

    def test_bytes_series_pads_missing_rounds(self):
        transport = Transport(TransportCosts(header_bytes=5, descriptor_bytes=0))
        transport.begin_round(2)
        transport.record_message("x", 0)
        assert transport.bytes_series("x", 4) == [0, 0, 5, 0]

    def test_unknown_layer_is_zero(self):
        transport = Transport()
        assert transport.bytes_series("ghost", 1) == [0]
        assert transport.bytes_series("ghost", 3) == [0, 0, 0]

    def test_reset(self):
        transport = Transport()
        transport.record_message("a", 1)
        transport.reset()
        assert transport.total_bytes() == 0
        assert transport.total_messages() == 0
