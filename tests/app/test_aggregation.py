"""Tests for component-scoped push-sum aggregation."""

from __future__ import annotations

import pytest

from repro.app.aggregation import (
    LAYER_AGGREGATION,
    attach_push_sum,
    component_average,
    estimates,
)
from repro.core import Runtime
from repro.errors import ConfigurationError
from repro.experiments.topologies import star_of_cliques


@pytest.fixture
def deployment():
    dep = Runtime(star_of_cliques(2, 12, 6), seed=17).deploy()
    assert dep.run_until_converged(80).converged
    return dep


class TestPushSum:
    def test_average_of_node_ids(self, deployment):
        members = deployment.role_map.member_ids("shard0")
        truth = sum(members) / len(members)
        average, rounds = component_average(
            deployment, "shard0", value_of=float, rounds=40
        )
        # The stop criterion is a 1e-3 relative estimate spread, so the
        # returned mean matches the truth to the same order.
        assert average == pytest.approx(truth, rel=1e-3)
        assert rounds < 40

    def test_estimates_agree_after_convergence(self, deployment):
        component_average(deployment, "shard1", value_of=lambda n: 10.0, rounds=40)
        values = list(estimates(deployment, "shard1").values())
        assert all(value == pytest.approx(10.0, rel=1e-3) for value in values)

    def test_mass_conservation(self, deployment):
        """The push-sum invariant: total (sum, weight) mass never changes."""
        members = deployment.role_map.member_ids("router")
        attach_push_sum(deployment, "router", value_of=float)
        total_before = sum(
            deployment.network.node(m).protocol(LAYER_AGGREGATION).sum
            for m in members
        )
        deployment.run(10)
        total_after = sum(
            deployment.network.node(m).protocol(LAYER_AGGREGATION).sum
            for m in members
        )
        weight_after = sum(
            deployment.network.node(m).protocol(LAYER_AGGREGATION).weight
            for m in members
        )
        assert total_after == pytest.approx(total_before, rel=1e-9)
        assert weight_after == pytest.approx(len(members), rel=1e-9)

    def test_partition_keeps_mass_on_each_island(self, deployment):
        """A push never crosses an active cut: per-island mass is invariant."""
        members = sorted(deployment.role_map.member_ids("shard0"))
        islands = [members[: len(members) // 2], members[len(members) // 2 :]]
        attach_push_sum(deployment, "shard0", value_of=float)

        def mass(island):
            protocols = [
                deployment.network.node(m).protocol(LAYER_AGGREGATION) for m in island
            ]
            return sum(p.sum for p in protocols), sum(p.weight for p in protocols)

        before = [mass(island) for island in islands]
        deployment.install_faults().set_partition(
            {m: index for index, island in enumerate(islands) for m in island}
        )
        deployment.run(10)
        for island, expected in zip(islands, before):
            assert mass(island) == pytest.approx(expected, rel=1e-9)
        assert deployment.transport.total_dropped(LAYER_AGGREGATION) > 0

    def test_scoped_to_component(self, deployment):
        attach_push_sum(deployment, "shard0", value_of=lambda n: 1.0)
        deployment.run(5)
        # No other component's nodes grew an aggregation layer.
        for node_id in deployment.role_map.member_ids("shard1"):
            assert not deployment.network.node(node_id).has_protocol(
                LAYER_AGGREGATION
            )

    def test_unknown_component_rejected(self, deployment):
        with pytest.raises(ConfigurationError):
            attach_push_sum(deployment, "ghost", value_of=float)

    def test_bandwidth_accounted(self, deployment):
        attach_push_sum(deployment, "shard0", value_of=float)
        deployment.run(3)
        assert deployment.transport.total_bytes(LAYER_AGGREGATION) > 0
