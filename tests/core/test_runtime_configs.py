"""Tests for alternative runtime configurations end-to-end."""

from __future__ import annotations

from repro.core import Runtime, RuntimeConfig
from repro.dsl import TopologyBuilder
from repro.sim.config import GossipParams


def pair_assembly():
    builder = TopologyBuilder("Cfg")
    builder.component("ring", "ring", size=16).port("gate", "lowest_id")
    builder.component("cell", "clique", size=8).port("gate", "lowest_id")
    builder.link(("ring", "gate"), ("cell", "gate"))
    return builder.nodes(24).build()


class TestTManCore:
    def test_tman_runtime_converges(self):
        config = RuntimeConfig(core_flavor="tman")
        deployment = Runtime(pair_assembly(), config=config, seed=91).deploy()
        report = deployment.run_until_converged(80)
        assert report.converged, report.rounds

    def test_tman_reconfigures(self):
        config = RuntimeConfig(core_flavor="tman")
        deployment = Runtime(pair_assembly(), config=config, seed=92).deploy()
        deployment.run_until_converged(80)
        builder = TopologyBuilder("Cfg2")
        builder.component("star_c", "star", size=24)
        deployment.rebalance(builder.build())
        report = deployment.run_until_converged(80)
        assert report.converged
        # The replacement core protocols keep the configured flavor.
        from repro.gossip.tman import TMan

        assert isinstance(deployment.network.node(0).protocol("core"), TMan)


class TestCustomGossipParams:
    def test_small_views_still_converge(self):
        config = RuntimeConfig(
            peer_sampling=GossipParams(view_size=8, gossip_size=4, healer=1, swapper=3),
            uo1=GossipParams(view_size=6, gossip_size=3, healer=1, swapper=2),
            core=GossipParams(view_size=8, gossip_size=4, healer=1, swapper=3),
        )
        deployment = Runtime(pair_assembly(), config=config, seed=95).deploy()
        report = deployment.run_until_converged(120)
        assert report.converged, report.rounds

    def test_uo2_contact_capacity_respected_at_three(self):
        config = RuntimeConfig(uo2_contacts_per_component=3)
        deployment = Runtime(pair_assembly(), config=config, seed=96).deploy()
        deployment.run(25)
        for node in deployment.network.alive_nodes():
            uo2 = node.protocol("uo2")
            for component in uo2.known_components():
                assert len(uo2.contacts(component)) <= 3
