"""RunnerConfig: validation and immutability."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.runtime.api import RunnerConfig


class TestValidation:
    def test_defaults_are_valid(self):
        config = RunnerConfig()
        assert config.kind == "round" and config.n_nodes == 64

    def test_frozen(self):
        config = RunnerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.n_nodes = 5  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "steam"},
            {"kind": "loopback"},
            {"n_nodes": 0},
            {"loss_rate": 1.0},
            {"loss_rate": -0.2},
            {"kind": "sharded", "loss_rate": 0.1},
            {"kind": "net", "loss_rate": 0.1},
            {"max_rounds": -1},
            {"n_shards": 0},
            {"n_shards": 65},
            {"mode": "threads"},
            {"backend": "arrow"},
            {"node_index": -1},
            {"node_index": 64},
            {"port": -1},
            {"port": 70_000},
            {"round_interval": 0.0},
            {"ttl": 0},
            {"ttl": 17},
            {"fanout": 0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            RunnerConfig(**kwargs)

    def test_net_knobs_accepted(self):
        config = RunnerConfig(
            kind="net",
            n_nodes=8,
            node_index=3,
            rendezvous="127.0.0.1:9000",
            round_interval=0.1,
        )
        assert config.node_index == 3

