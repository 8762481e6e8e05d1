"""Regression tests: descriptors of dead nodes must age out everywhere.

The failure mode (caught by the lifecycle fuzzer): on uniform-distance
shapes, a dead low-node-id member's descriptor stays maximally attractive,
so every node that purges it re-imports it from a peer's buffer — a zombie
equilibrium that blocks core convergence forever. The cure is two-fold:
descriptors age one hop per transfer (no fresh copies can be minted for a
dead node, so the minimum age strictly climbs) and views/buffers drop
entries past ``descriptor_ttl``.
"""

from __future__ import annotations

import pytest

from repro.core import Runtime
from repro.dsl import TopologyBuilder


def null_ctx():
    """A minimal RoundContext for unit-level protocol calls (no obs sink)."""
    from repro.sim.engine import RoundContext

    return RoundContext(node=None, network=None, transport=None, streams=None, round=0)


def pair_assembly():
    builder = TopologyBuilder("Zombie")
    builder.component("ring", "ring", size=12).port("gate", "lowest_id")
    builder.component("cell", "clique", size=6).port("gate", "lowest_id")
    builder.link(("ring", "gate"), ("cell", "gate"))
    return builder.build()


class TestZombieDescriptors:
    def test_dead_clique_members_age_out_of_views(self):
        """Kill the two lowest-id clique members (the most 'attractive'
        descriptors), promote spares, and require full re-convergence."""
        deployment = Runtime(pair_assembly(), seed=62128).deploy(22)
        deployment.run_until_converged(80)
        victims = sorted(deployment.role_map.member_ids("cell"))[:2]
        for victim in victims:
            deployment.network.kill(victim)
        deployment.rebalance()
        deployment.tracker.reset()
        report = deployment.run_until_converged(100)
        assert report.converged, report.rounds
        # No live node's core view may still expose the dead members.
        for node_id in deployment.role_map.member_ids("cell"):
            neighbors = deployment.network.node(node_id).protocol("core").neighbors()
            assert not (set(victims) & set(neighbors)), (
                f"node {node_id} still lists dead {victims}: {neighbors}"
            )

    def test_in_transit_aging(self):
        """Received descriptors count one hop older than they were sent."""
        from repro.gossip.descriptors import Descriptor
        from repro.gossip.selection import Proximity
        from repro.gossip.vicinity import Vicinity

        instance = Vicinity(
            0,
            profile=0,
            proximity=Proximity(lambda a, b: abs(a - b)),
            layer="v",
            random_layer=None,
        )
        instance._merge_pool(null_ctx(), [], [Descriptor(1, age=0, profile=1)])
        assert instance.view.get(1).age == 1

    def test_ttl_drops_stale_entries(self):
        from repro.gossip.descriptors import Descriptor
        from repro.gossip.selection import Proximity
        from repro.gossip.vicinity import Vicinity

        instance = Vicinity(
            0,
            profile=0,
            proximity=Proximity(lambda a, b: abs(a - b)),
            layer="v",
            random_layer=None,
            descriptor_ttl=5,
        )
        instance._merge_pool(null_ctx(), [], [Descriptor(1, age=9, profile=1)])
        assert 1 not in instance.view.ids()

    @pytest.mark.parametrize("seed", [62128, 7, 99])
    def test_randomized_churn_sequences_recover(self, seed):
        """Replays of fuzz-like operation sequences always heal."""
        import random

        rng = random.Random(seed)
        deployment = Runtime(pair_assembly(), seed=seed).deploy(22)
        for _ in range(10):
            op = rng.choice(["run", "crash", "spare", "reb"])
            if op == "run":
                deployment.run(rng.randint(1, 4))
            elif op == "crash":
                alive = deployment.network.alive_ids()
                if len(alive) > deployment.assembly.min_nodes() + 2:
                    deployment.network.kill(rng.choice(alive))
            elif op == "spare" and deployment.network.size() <= 40:
                node = deployment.network.create_node()
                deployment.provisioner()(deployment.network, node)
            elif op == "reb":
                deployment.rebalance()
        deployment.rebalance()
        deployment.tracker.reset()
        report = deployment.run_until_converged(120, layers=("core", "uo1", "uo2"))
        assert report.converged, report.rounds
