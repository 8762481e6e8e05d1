"""Tests for dynamic reconfiguration (paper experiment iii).

There is one lifecycle call: ``Deployment.rebalance(assembly)`` switches a
live deployment to a new assembly under the same sticky rule a failure-wave
rebalance uses.
"""

from __future__ import annotations

import pytest

from repro.core import Runtime
from repro.core.link import LinkSpec, PortRef
from repro.errors import AssemblyError
from repro.core.roles import SPARE_COMPONENT
from repro.dsl import TopologyBuilder


def rings_assembly(n_rings=4, size=8):
    builder = TopologyBuilder("Rings")
    east = max(1, size // 2)
    for index in range(n_rings):
        builder.component(f"ring{index}", "ring", size=size).port(
            "west", "rank(0)"
        ).port("east", f"rank({east})")
    for index in range(n_rings):
        builder.link(
            (f"ring{index}", "east"), (f"ring{(index + 1) % n_rings}", "west")
        )
    return builder.nodes(n_rings * size).build()


def star_assembly(total=32):
    builder = TopologyBuilder("BigStar")
    builder.component("hub_star", "star", size=total).port("hub", "hub")
    return builder.nodes(total).build()


class TestReconfigure:
    def test_switch_and_reconverge(self):
        deployment = Runtime(rings_assembly(), seed=41).deploy()
        first = deployment.run_until_converged(80)
        assert first.converged
        deployment.rebalance(star_assembly())
        report = deployment.run_until_converged(80)
        assert report.converged, report.rounds
        assert deployment.assembly.name == "BigStar"

    def test_roles_adopt_new_components(self):
        deployment = Runtime(rings_assembly(), seed=42).deploy()
        deployment.run(10)
        deployment.rebalance(star_assembly())
        components = {
            deployment.role_map.role(node_id).component
            for node_id in deployment.network.node_ids()
        }
        assert components == {"hub_star"}

    def test_core_protocol_rebuilt_for_new_shape(self):
        deployment = Runtime(rings_assembly(), seed=43).deploy()
        deployment.run(5)
        old_core = deployment.network.node(0).protocol("core")
        deployment.rebalance(star_assembly())
        new_core = deployment.network.node(0).protocol("core")
        assert new_core is not old_core

    def test_peer_sampling_state_survives(self):
        deployment = Runtime(rings_assembly(), seed=44).deploy()
        deployment.run(10)
        before = {
            node.node_id: set(node.protocol("peer_sampling").view.ids())
            for node in deployment.network.nodes()
        }
        deployment.rebalance(star_assembly())
        after = {
            node.node_id: set(node.protocol("peer_sampling").view.ids())
            for node in deployment.network.nodes()
        }
        assert before == after

    def test_tracker_reset_on_reconfigure(self):
        deployment = Runtime(rings_assembly(), seed=45).deploy()
        deployment.run_until_converged(60)
        deployment.rebalance(star_assembly())
        assert all(
            value is None
            for value in deployment.tracker.first_converged.values()
        )

    def test_resize_same_topology(self):
        """Growing a component family in place (the evolving-needs case)."""
        deployment = Runtime(rings_assembly(n_rings=4, size=8), seed=46).deploy()
        deployment.run_until_converged(60)
        bigger = rings_assembly(n_rings=8, size=4)
        deployment.rebalance(bigger)
        report = deployment.run_until_converged(80)
        assert report.converged
        assert len(deployment.assembly.components) == 8

    def test_oversized_assembly_degrades_gracefully(self):
        """A too-big fixed size shrinks to the live population (elastic)."""
        deployment = Runtime(rings_assembly(), seed=47).deploy()  # 32 nodes
        deployment.run(2)
        builder = TopologyBuilder("TooBig")
        builder.component("huge", "ring", size=1000)
        deployment.rebalance(builder.build())
        assert deployment.role_map.component_size("huge") == 32

    def test_unchanged_roles_still_pick_up_new_links(self):
        """Regression: a node whose role survives a reconfiguration must
        still refresh its port/link tables when the assembly adds links."""
        builder = TopologyBuilder("Hub")
        builder.component("hub_comp", "star", size=8).port("hub", "hub")
        builder.component("leaf0", "clique", size=8).port("head", "lowest_id")
        builder.link(("hub_comp", "hub"), ("leaf0", "head"))
        deployment = Runtime(builder.nodes(16).build(), seed=50).deploy(24)
        deployment.run_until_converged(60)

        grown = TopologyBuilder("Hub")
        grown.component("hub_comp", "star", size=8).port("hub", "hub")
        grown.component("leaf0", "clique", size=8).port("head", "lowest_id")
        grown.component("leaf1", "clique", size=8).port("head", "lowest_id")
        grown.link(("hub_comp", "hub"), ("leaf0", "head"))
        grown.link(("hub_comp", "hub"), ("leaf1", "head"))
        deployment.rebalance(grown.nodes(24).build())
        report = deployment.run_until_converged(80)
        assert report.converged, report.rounds
        hub = deployment.role_map.members("hub_comp")[0][0]
        connection = deployment.network.node(hub).protocol("port_connection")
        assert len(connection.links) == 2
        assert len(connection.realized_links()) == 2

    def test_shape_swap_with_same_role_rebuilds_core(self):
        """Same component name, size and ranks, different shape."""
        ring_builder = TopologyBuilder("Morph")
        ring_builder.component("comp", "ring", size=16)
        deployment = Runtime(ring_builder.nodes(16).build(), seed=51).deploy()
        deployment.run_until_converged(60)
        old_core = deployment.network.node(0).protocol("core")

        star_builder = TopologyBuilder("Morph")
        star_builder.component("comp", "star", size=16)
        deployment.rebalance(star_builder.nodes(16).build())
        report = deployment.run_until_converged(80)
        assert report.converged
        assert deployment.network.node(0).protocol("core") is not old_core

    def test_unsatisfiable_assembly_rejected(self):
        """More components than live nodes cannot be deployed at all."""
        deployment = Runtime(rings_assembly(), seed=48).deploy()  # 32 nodes
        deployment.run(2)
        builder = TopologyBuilder("TooMany")
        for index in range(40):
            builder.component(f"c{index}", "ring", size=1)
        with pytest.raises(AssemblyError):
            deployment.rebalance(builder.build())

    def test_node_dead_across_a_reconfiguration_rejoins_as_a_spare(self):
        """Regression: a node dead during the switch has no role in the new
        map. It used to keep the old assembly's stack, and once revived its
        core shipped ring coordinates to the new star cores, which crashed
        the star's distance function."""
        pair = TopologyBuilder("Fuzz")
        pair.component("ring", "ring", size=12).port("gate", "lowest_id")
        pair.component("cell", "clique", size=6).port("gate", "lowest_id")
        pair.link(("ring", "gate"), ("cell", "gate"))
        star = TopologyBuilder("Fuzz")
        star.component("hub_comp", "star", size=8).port("hub", "hub")
        star.component("pool", "random", size=10, min_degree=2).port(
            "up", "lowest_id"
        )
        star.link(("hub_comp", "hub"), ("pool", "up"))

        deployment = Runtime(pair.build(), seed=0).deploy(22)
        deployment.run(1)
        victim = deployment.network.alive_ids()[0]
        deployment.network.kill(victim)
        deployment.rebalance(star.build())
        deployment.network.revive(victim)
        deployment.run(1)
        node = deployment.network.node(victim)
        assert node.attributes["role"].component == SPARE_COMPONENT
        assert not deployment.role_map.has_role(victim)


def snapshot(deployment):
    """Everything a rejected rebalance must leave as it was."""
    return (
        deployment.assembly,
        deployment.runtime.assembly,
        deployment.role_map,
        {node.node_id: node.attributes["role"] for node in deployment.network.nodes()},
        dict(deployment.tracker.first_converged),
    )


class TestOneLifecyclePath:
    @pytest.mark.parametrize("case", ["more components than live nodes", "invalid"])
    def test_rejected_assembly_leaves_the_deployment_intact(self, case):
        deployment = Runtime(rings_assembly(), seed=52).deploy()  # 32 nodes
        deployment.run_until_converged(60)
        deployment.network.kill(3)
        before = snapshot(deployment)
        assert all(value is not None for value in before[-1].values())
        builder = TopologyBuilder("Rejected")
        if case == "invalid":
            builder.component("ring0", "ring", size=8).port("west", "rank(0)")
            builder.component("ring1", "ring", size=8)
            rejected = builder.build()
            # A link to a port ring1 does not declare fails validate().
            rejected.links.append(
                LinkSpec(PortRef("ring0", "west"), PortRef("ring1", "east"))
            )
        else:
            for index in range(40):
                builder.component(f"ring{index}", "ring", size=1)
            rejected = builder.build()
        with pytest.raises(AssemblyError):
            deployment.rebalance(rejected)
        after = snapshot(deployment)
        assert after[0] is before[0] and after[1] is before[1]
        assert after[2] is before[2]
        assert after[3:] == before[3:]

    def test_incremental_change_keeps_survivors_in_their_component(self):
        """Growing 4 rings of 8 into 5 rings of 6: each old ring keeps six
        of its members, and only the overflow refills the new ring."""
        deployment = Runtime(rings_assembly(4, 8), seed=53).deploy()
        deployment.run_until_converged(60)
        before = {
            name: deployment.role_map.member_ids(name)
            for name in deployment.assembly.components
        }
        moved = deployment.rebalance(rings_assembly(5, 6))
        after = deployment.role_map
        for name, members in before.items():
            assert after.member_ids(name) == members[:6]
        assert after.component_size("ring4") == 6
        assert after.component_size(SPARE_COMPONENT) == 2
        # Every role changed (ring sizes shrank), though only 8 nodes
        # changed component.
        assert moved == {"population": 32, "roles_moved": 32}
        assert deployment.run_until_converged(80).converged

    def test_same_assembly_rebalance_keeps_the_tracker(self):
        deployment = Runtime(rings_assembly(), seed=54).deploy()
        deployment.run_until_converged(60)
        converged = dict(deployment.tracker.first_converged)
        deployment.network.kill(5)
        deployment.rebalance()
        deployment.rebalance(deployment.assembly)
        assert deployment.tracker.first_converged == converged
        assert deployment.rebalance()["roles_moved"] == 0
