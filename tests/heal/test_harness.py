"""Corruption generators: determinism, degree scaling, injected damage."""

from __future__ import annotations

import random

import networkx
import pytest

from repro.analysis.graphs import realized_graph
from repro.errors import ConfigurationError
from repro.heal.harness import (
    CORRUPTIONS,
    FORGED_ID_BASE,
    corrupt_poisoned,
    corrupt_segregated,
    corrupt_stale,
    corruption_modes,
)
from repro.heal.scenarios import standard_deployment


def knowledge_components(deployment):
    """Connected components of the live peer-sampling knowledge graph."""
    graph = realized_graph(deployment, "peer_sampling", include_links=False)
    return networkx.number_connected_components(graph)


def converged(n_nodes=48, seed=13):
    deployment = standard_deployment(n_nodes, seed)
    deployment.run_until_converged(120)
    return deployment


def test_registry_and_modes_agree():
    assert corruption_modes() == sorted(CORRUPTIONS)
    assert set(corruption_modes()) == {"segregated", "poisoned", "stale"}


@pytest.mark.parametrize("mode", sorted(CORRUPTIONS))
def test_degree_is_validated(mode):
    deployment = converged()
    with pytest.raises(ConfigurationError):
        CORRUPTIONS[mode](deployment, random.Random(1), degree=1.5)


def test_segregated_splits_the_knowledge_graph():
    deployment = converged()
    assert knowledge_components(deployment) == 1
    info = corrupt_segregated(deployment, random.Random(5), degree=1.0)
    assert info["entries_dropped"] > 0
    assert sum(info["groups"]) == deployment.network.alive_count()
    assert knowledge_components(deployment) >= 2


def test_poisoned_eclipses_with_forged_descriptors():
    deployment = converged()
    info = corrupt_poisoned(deployment, random.Random(5), degree=1.0)
    assert info["forged"] > 0
    assert knowledge_components(deployment) >= 2
    # The forged sybils really are planted: some live view references a
    # node id beyond the population.
    planted = [
        descriptor.node_id
        for node_id in deployment.network.alive_ids()
        for descriptor in deployment.network.node(node_id)
        .protocol("peer_sampling")
        .view.descriptors()
        if descriptor.node_id >= FORGED_ID_BASE
    ]
    assert planted
    # No view was left empty (the eclipse must not trigger the oracle).
    for node_id in deployment.network.alive_ids():
        node = deployment.network.node(node_id)
        assert len(node.protocol("peer_sampling").view) > 0


def test_stale_kills_floods_and_rolls_back():
    deployment = converged()
    population = deployment.network.alive_count()
    info = corrupt_stale(deployment, random.Random(5), degree=1.0)
    assert info["killed"] == int(population * 0.3)
    assert deployment.network.alive_count() == population - info["killed"]
    assert info["corpses_flooded"] > 0
    assert info["entries_dropped"] > 0
    # Survivors' views reference the freshly killed (age-0 corpses).
    victims = set()
    for node_id in deployment.network.alive_ids():
        view = deployment.network.node(node_id).protocol("peer_sampling").view
        for descriptor in view.descriptors():
            if not deployment.network.is_alive(descriptor.node_id):
                victims.add(descriptor.node_id)
    assert len(victims) > 0


def test_degree_zero_changes_nothing():
    deployment = converged()
    info = corrupt_segregated(deployment, random.Random(5), degree=0.0)
    assert info["entries_dropped"] == 0
    assert knowledge_components(deployment) == 1


@pytest.mark.parametrize("mode", sorted(CORRUPTIONS))
def test_corruption_is_a_pure_function_of_seed(mode):
    def run_once():
        deployment = converged()
        rng = deployment.streams.fork("heal").stream("corruption", mode)
        info = CORRUPTIONS[mode](deployment, rng, degree=0.8)
        views = {
            node_id: sorted(
                deployment.network.node(node_id)
                .protocol("peer_sampling")
                .view.ids()
            )
            for node_id in deployment.network.alive_ids()
        }
        return info, views

    assert run_once() == run_once()
