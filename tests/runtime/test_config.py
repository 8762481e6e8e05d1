"""RunnerConfig: validation, immutability, and the pinned config surface."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.runtime import RuntimeConfig
from repro.errors import ConfigurationError
from repro.runtime.api import RunnerConfig
from repro.scale.engine import ShardPlan
from repro.sim.config import GossipParams, TransportCosts


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
            {"round_interval": float("nan")},
            {"round_interval": float("inf")},
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


def test_config_surfaces_are_pinned():
    """New knobs belong on RunnerConfig; growing any of these records is a
    deliberate API change that updates this pin in the same commit."""
    surfaces = {
        cls.__name__: tuple(field.name for field in dataclasses.fields(cls))
        for cls in (GossipParams, TransportCosts, ShardPlan, RunnerConfig, RuntimeConfig)
    }
    assert surfaces == {
        "GossipParams": ("view_size", "gossip_size", "healer", "swapper"),
        "TransportCosts": ("header_bytes", "descriptor_bytes"),
        "ShardPlan": ("n_nodes", "n_shards"),
        "RunnerConfig": (
            "kind",
            "n_nodes",
            "seed",
            "shape",
            "workload",
            "gossip",
            "costs",
            "max_rounds",
            "backend",
            "n_shards",
            "mode",
            "bind_host",
            "port",
            "node_index",
            "rendezvous",
            "round_interval",
        ),
        "RuntimeConfig": (
            "peer_sampling",
            "uo1",
            "core",
            "uo2_contacts_per_component",
            "binding_ttl",
            "core_flavor",
            "costs",
        ),
    }
