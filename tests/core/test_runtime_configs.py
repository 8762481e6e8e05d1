"""Tests for the T-Man core flavour end-to-end."""

from __future__ import annotations

from repro.core import Runtime
from repro.dsl import TopologyBuilder


def pair_assembly():
    builder = TopologyBuilder("Cfg")
    builder.component("ring", "ring", size=16).port("gate", "lowest_id")
    builder.component("cell", "clique", size=8).port("gate", "lowest_id")
    builder.link(("ring", "gate"), ("cell", "gate"))
    return builder.nodes(24).build()


class TestTManCore:
    def test_tman_runtime_converges(self):
        deployment = Runtime(pair_assembly(), seed=91, core_flavor="tman").deploy()
        report = deployment.run_until_converged(80)
        assert report.converged, report.rounds

    def test_tman_reconfigures(self):
        deployment = Runtime(pair_assembly(), seed=92, core_flavor="tman").deploy()
        deployment.run_until_converged(80)
        builder = TopologyBuilder("Cfg2")
        builder.component("star_c", "star", size=24)
        deployment.rebalance(builder.build())
        report = deployment.run_until_converged(80)
        assert report.converged
        # The replacement core protocols keep the configured flavor.
        from repro.gossip.tman import TMan

        assert isinstance(deployment.network.node(0).protocol("core"), TMan)

