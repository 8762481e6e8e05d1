"""Unit tests for the shard partition."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.scale.engine import ShardPlan


class TestShardPlan:
    @pytest.mark.parametrize("n_nodes", [1, 2, 7, 64, 100, 1024])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_members_partition_all_ranks_exactly_once(self, n_nodes, n_shards):
        if n_shards > n_nodes:
            pytest.skip("more shards than nodes is rejected")
        plan = ShardPlan(n_nodes, n_shards)
        seen = []
        for shard in range(n_shards):
            seen.extend(plan.members(shard))
        assert seen == list(range(n_nodes))

    @pytest.mark.parametrize("n_nodes,n_shards", [(64, 3), (10, 4), (100, 7)])
    def test_shard_of_agrees_with_members(self, n_nodes, n_shards):
        plan = ShardPlan(n_nodes, n_shards)
        for shard in range(n_shards):
            for rank in plan.members(shard):
                assert plan.shard_of(rank) == shard

    def test_uneven_split_front_loads_the_remainder(self):
        plan = ShardPlan(64, 3)
        sizes = [len(plan.members(shard)) for shard in range(3)]
        assert sizes == [22, 21, 21]

    def test_contiguous_blocks(self):
        plan = ShardPlan(100, 7)
        for shard in range(7):
            members = plan.members(shard)
            assert list(members) == list(range(members.start, members.stop))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            ShardPlan(0, 1)
        with pytest.raises(ConfigurationError):
            ShardPlan(4, 0)
        with pytest.raises(ConfigurationError):
            ShardPlan(4, 5)
        with pytest.raises(ConfigurationError):
            ShardPlan(4, 2).members(2)
        with pytest.raises(ConfigurationError):
            ShardPlan(4, 2).shard_of(4)

