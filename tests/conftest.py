"""Shared fixtures: small assemblies and fast runtime configurations."""

from __future__ import annotations

import pytest

from repro.core import Runtime, RuntimeConfig
from repro.dsl import TopologyBuilder
from repro.sim.config import GossipParams

try:
    from hypothesis import settings as hypothesis_settings
except ImportError:  # pragma: no cover - optional dependency
    pass
else:
    # `pytest --hypothesis-profile ci`: every property test explores the same
    # examples on every run, so a red build is a change in the code, not in
    # the dice. Local runs keep the random default and find new examples.
    hypothesis_settings.register_profile("ci", derandomize=True)


@pytest.fixture
def fast_config() -> RuntimeConfig:
    """A runtime configuration tuned for small test deployments."""
    return RuntimeConfig(
        peer_sampling=GossipParams(view_size=12, gossip_size=6, healer=1, swapper=5),
        uo1=GossipParams(view_size=8, gossip_size=4, healer=1, swapper=3),
        core=GossipParams(view_size=10, gossip_size=5, healer=1, swapper=4),
    )


@pytest.fixture
def tiny_ring_assembly():
    """One 24-node ring component, no ports or links."""
    builder = TopologyBuilder("TinyRing")
    builder.component("ring", "ring", size=24)
    return builder.nodes(24).build()


@pytest.fixture
def two_component_assembly():
    """A linked pair: one ring and one clique, one link between them."""
    builder = TopologyBuilder("Pair")
    builder.component("ring", "ring", size=16).port("gate", "lowest_id")
    builder.component("cell", "clique", size=8).port("gate", "lowest_id")
    builder.link(("ring", "gate"), ("cell", "gate"))
    return builder.nodes(24).build()


@pytest.fixture
def deployed_pair(two_component_assembly, fast_config):
    """A converged deployment of the two-component assembly."""
    deployment = Runtime(two_component_assembly, config=fast_config, seed=11).deploy(24)
    report = deployment.run_until_converged(max_rounds=80)
    assert report.converged, f"fixture failed to converge: {report.rounds}"
    return deployment
