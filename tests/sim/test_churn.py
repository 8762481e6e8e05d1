"""Tests for churn and failure injection: the ``random_churn`` and
``catastrophic_failure`` schedule builders, run on a deployment."""

from __future__ import annotations

import random

import pytest

from repro import Runtime
from repro.errors import ConfigurationError
from repro.experiments.topologies import ring_of_rings
from repro.faults.schedule import catastrophic_failure, random_churn


def make_deployment(count):
    """A small ring-of-rings deployment (extras are spares), no fault plane."""
    return Runtime(ring_of_rings(n_rings=2, ring_size=4), seed=0).deploy(count)


def churn(deployment, rng, rounds=1, **options):
    start = deployment.engine.round
    return random_churn(
        deployment, rng, at_round=start, until_round=start + rounds, **options
    )


def crashes(schedule):
    return [len(event.args[0]) for event in schedule if event.op == "kill"]


class TestRandomChurnValidation:
    def test_bad_crash_rate(self):
        deployment = make_deployment(8)
        with pytest.raises(ConfigurationError):
            churn(deployment, random.Random(0), crash_rate=1.0)
        with pytest.raises(ConfigurationError):
            churn(deployment, random.Random(0), crash_rate=-0.1)

    def test_negative_joins(self):
        with pytest.raises(ConfigurationError):
            churn(make_deployment(8), random.Random(0), join_count=-1)

    def test_window(self):
        with pytest.raises(ConfigurationError):
            churn(make_deployment(8), random.Random(0), rounds=0)


class TestRandomChurnBehavior:
    def test_crashes_roughly_at_rate(self):
        deployment = make_deployment(200)
        schedule = churn(deployment, random.Random(1), crash_rate=0.1, min_population=10)
        # ~20 expected; allow generous slack for a single draw.
        (crashed,) = crashes(schedule)
        assert 5 <= crashed <= 45
        schedule.arm(deployment)
        deployment.run(1)
        assert deployment.network.alive_count() == 200 - crashed

    def test_min_population_floor(self):
        deployment = make_deployment(12)
        schedule = churn(
            deployment, random.Random(1), rounds=10, crash_rate=0.99, min_population=8
        )
        assert sum(crashes(schedule)) == 4
        schedule.arm(deployment)
        deployment.run(10)
        assert deployment.network.alive_count() == 8

    def test_joins_are_provisioned(self):
        deployment = make_deployment(8)
        network = deployment.network
        schedule = churn(deployment, random.Random(1), rounds=2, join_count=2)
        assert list(schedule) == [(0, "join", (2,)), (1, "join", (2,))]
        schedule.arm(deployment)
        deployment.run(1)
        assert network.size() == 10
        assert network.node(9).has_protocol("peer_sampling")  # a spare's full stack
        deployment.run(1)
        assert network.size() == network.alive_count() == 12

    def test_crash_coins_see_the_joiners(self):
        # Joiners are alive from the next round on, and may crash then: the
        # coins are drawn over the ids the joins will get.
        deployment = make_deployment(8)
        schedule = churn(
            deployment, random.Random(4), rounds=12, crash_rate=0.3, join_count=1,
            min_population=4,
        )
        killed = [node_id for event in schedule if event.op == "kill" for node_id in event.args[0]]
        assert max(killed) >= 8
        schedule.arm(deployment)
        deployment.run(12)
        network = deployment.network
        assert not any(network.is_alive(node_id) for node_id in killed)
        assert network.size() == 20

    def test_zero_rates_are_noop(self):
        deployment = make_deployment(8)
        assert churn(deployment, random.Random(1)) == ()


class TestCatastrophicFailure:
    def test_validation(self):
        deployment = make_deployment(8)
        with pytest.raises(ConfigurationError):
            catastrophic_failure(deployment, random.Random(0), at_round=0, fraction=0.0)
        with pytest.raises(ConfigurationError):
            catastrophic_failure(deployment, random.Random(0), at_round=0, fraction=1.0)
        with pytest.raises(ConfigurationError):
            catastrophic_failure(deployment, random.Random(0), at_round=-1, fraction=0.5)

    def test_kills_exact_fraction_once(self):
        deployment = make_deployment(40)
        network = deployment.network
        schedule = catastrophic_failure(deployment, random.Random(2), at_round=3, fraction=0.5)
        executor = schedule.arm(deployment)
        deployment.run(3)
        assert network.alive_count() == 40
        deployment.run(1)
        assert network.alive_count() == 20
        assert crashes(schedule) == [20]
        # Firing again must do nothing.
        executor.before_round(network, 4)
        assert network.alive_count() == 20

    def test_min_population_caps_blast_radius(self):
        deployment = make_deployment(20)
        schedule = catastrophic_failure(
            deployment, random.Random(2), at_round=0, fraction=0.9, min_population=12
        )
        assert crashes(schedule) == [8]
        schedule.arm(deployment)
        deployment.run(1)
        assert deployment.network.alive_count() == 12

    def test_min_population_validation(self):
        with pytest.raises(ConfigurationError):
            catastrophic_failure(
                make_deployment(8), random.Random(0), at_round=0, fraction=0.5,
                min_population=-1,
            )
