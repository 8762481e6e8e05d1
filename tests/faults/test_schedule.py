"""A fault schedule is data: it round-trips through JSON, and the copy that
comes back runs to the same overlay as the schedule that was built.

Every fault row of the scenario catalogue and A3's churn phase build their
schedule on a deployment; the test serializes it, deserializes it, runs the
copy, and compares the overlay digest and the fault event log with a twin
deployment (same row and seed) running the built schedule.
"""

from __future__ import annotations

import json

import pytest

from repro import Runtime
from repro.core.layers import RUNTIME_LAYERS
from repro.errors import ConfigurationError
from repro.experiments.catalogue import EXPERIMENTS, churn_schedule
from repro.faults.schedule import Event, FaultSchedule
from repro.faults.zones import ZoneMap
from repro.heal.scenarios import (
    DEFAULT_ZONES,
    FAULT_ROWS,
    SCENARIOS,
    format_scenario,
    run_scenario,
    standard_deployment,
)
from repro.perf.digest import overlay_digest

SCHEDULE_ROWS = FAULT_ROWS + ("partition-churn",)


def row_deployment(row, seed=1):
    """The 32-node substrate ``run_scenario`` arms for ``row``, converged."""
    deployment = standard_deployment(32, seed)
    deployment.run_until_converged(120)
    zones = None
    if SCENARIOS[row].zones:
        zones = ZoneMap.round_robin(deployment.network.node_ids(), DEFAULT_ZONES)
        zones.annotate(deployment.network)
    deployment.install_faults(zones)
    return deployment


def outcome(deployment, schedule, rounds):
    schedule.arm(deployment)
    deployment.run(rounds)
    events = [] if deployment.faults is None else deployment.faults.events
    return overlay_digest(deployment.network, RUNTIME_LAYERS), [str(e) for e in events]


def shipped(schedule):
    """``schedule`` after a trip through JSON."""
    copy = FaultSchedule.from_json(schedule.to_json())
    assert copy == schedule
    return copy


@pytest.mark.parametrize("row", SCHEDULE_ROWS)
def test_every_fault_row_round_trips_and_reruns(row):
    spec = SCENARIOS[row]
    sent, twin = row_deployment(row), row_deployment(row)
    copy = shipped(spec.schedule(sent, spec.window))
    built = spec.schedule(twin, spec.window)
    assert copy == built  # a pure function of (row, seed, deployment)
    rounds = spec.window + 4
    digest, events = outcome(sent, copy, rounds)
    assert (digest, events) == outcome(twin, built, rounds)
    assert len(events) >= 2  # the fault and its repair both fired


def test_the_a3_churn_schedule_round_trips_and_reruns():
    point = EXPERIMENTS["a3"].point(0.05, 48)

    def deploy():
        return Runtime(point.topology, seed=1, core_flavor=point.core_flavor).deploy(point.nodes)

    sent, twin = deploy(), deploy()
    copy = shipped(churn_schedule(sent, point.label, 60))
    built = churn_schedule(twin, point.label, 60)
    assert copy == built
    assert {event.op for event in built} == {"kill", "join"}
    assert outcome(sent, copy, 20) == outcome(twin, built, 20)
    assert sent.network.size() == point.nodes + 20 * 2


def test_json_is_plain_events():
    schedule = FaultSchedule(
        [(3, "heal", (0,)), (1, "cut", [[0, 2], [1, 3]]), (1, "link", ("a", "b", (0.5, 0.0)))]
    )
    # Stable round order: the cut stays ahead of the link it shares a round with.
    assert [event.op for event in schedule] == ["cut", "link", "heal"]
    assert json.loads(schedule.to_json()) == [
        [1, "cut", [[0, 2], [1, 3]]],
        [1, "link", ["a", "b", [0.5, 0.0]]],
        [3, "heal", [0]],
    ]
    assert schedule + [(0, "rebalance", ())] == FaultSchedule(
        [(0, "rebalance", ()), *schedule]
    )
    assert isinstance(schedule[0], Event) and schedule[0].args == ((0, 2), (1, 3))


def test_bad_events_are_rejected():
    with pytest.raises(ConfigurationError, match="unknown fault op"):
        FaultSchedule([(0, "explode", ())])
    with pytest.raises(ConfigurationError, match="round"):
        FaultSchedule([(-1, "rebalance", ())])
    with pytest.raises(ConfigurationError, match="round"):
        FaultSchedule.from_json('[["1", "rebalance", []]]')


@pytest.mark.slow
def test_the_report_prints_the_schedule_it_ran():
    result = run_scenario("catastrophe", n_nodes=32, seed=1)
    lines = format_scenario(result).splitlines()
    block = [line for line in lines if line.startswith("schedule: ")]
    assert lines[: len(block) + 1] == block + [""]
    assert [json.loads(line.partition(": ")[2]) for line in block] == json.loads(
        result.schedule.to_json()
    )
    assert [event.op for event in result.schedule] == ["kill", "rebalance"]
