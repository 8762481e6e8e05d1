"""Tests for the Fig. 4 bandwidth split and table rendering."""

from __future__ import annotations

from types import SimpleNamespace

from repro.core.runtime import Deployment
from repro.obs.export import render_table
from repro.sim.config import TransportCosts
from repro.sim.transport import Transport


def loaded_transport():
    transport = Transport(TransportCosts(header_bytes=10, descriptor_bytes=0))
    transport.begin_round(0)
    transport.record_message("core", 0)          # 10 bytes
    transport.record_message("peer_sampling", 0)  # 10 bytes
    transport.begin_round(1)
    transport.record_exchange("core", 0, 0)       # 20 bytes
    transport.record_message("uo1", 0)            # 10 bytes
    return transport


class TestBandwidth:
    def test_total_split(self):
        deployment = SimpleNamespace(transport=loaded_transport())
        split = Deployment.bandwidth_split(deployment, 2)
        # Baseline = core + peer sampling; overhead = the four assembly
        # sub-procedures (here only uo1 carries traffic).
        assert split["baseline"] == [20, 20]
        assert split["overhead"] == [0, 10]


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["x", "value"], [(1, 10), (200, 3)])
        lines = text.splitlines()
        assert len(lines) == 4
        # All rows same width.
        assert len({len(line) for line in lines}) == 1

    def test_render_table_title(self):
        text = render_table(["a"], [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_empty_rows(self):
        text = render_table(["a", "b"], [])
        assert len(text.splitlines()) == 2
