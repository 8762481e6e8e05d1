"""RemediationEngine decision logic: lifecycle, retries, backoff.

Driven with scripted actions and a fake monitor so every branch of the
retry accounting is pinned without simulating an overlay: outcomes burn
attempts per the three-way protocol, the wait between attempts is the
deterministic jittered backoff of :func:`~repro.heal.engine.delay`, and the
last attempt marks the incident ``unrecoverable``.
"""

from __future__ import annotations

import random

from repro.heal.actions import RemediationAction
from repro.heal.engine import MAX_ATTEMPTS, RemediationEngine, delay
from repro.obs import events as _events
from repro.obs.collector import Collector
from repro.obs.health import Alert


class ScriptedAction(RemediationAction):
    """Returns a scripted outcome per call (then keeps applying)."""

    base_delay = 2
    max_delay = 8

    def __init__(self, name, outcomes=()):
        self.name = name
        self.outcomes = list(outcomes)
        self.calls = 0

    def apply(self, deployment, alert, round_index, rng):
        self.calls += 1
        outcome = self.outcomes.pop(0) if self.outcomes else "applied"
        return {"outcome": outcome}


class FakeMonitor:
    """Just enough HealthMonitor surface for the engine: subscribe + fire."""

    def __init__(self):
        self.collector = Collector()
        self.listeners = []

    def subscribe(self, listener):
        self.listeners.append(listener)

    def fire(self, rule, round_index, severity="critical"):
        alert = Alert(rule=rule, severity=severity, round_fired=round_index)
        for listener in self.listeners:
            listener(alert, True, round_index)
        return alert

    def clear(self, alert, round_index):
        alert.round_cleared = round_index
        for listener in self.listeners:
            listener(alert, False, round_index)


def make_engine(actions):
    monitor = FakeMonitor()
    engine = RemediationEngine(
        deployment=None, monitor=monitor, rng=random.Random(42), actions=actions
    )
    return engine, monitor


def drain(engine, start, stop):
    for round_index in range(start, stop):
        engine.act(None, round_index)


def test_delay_grows_geometrically_and_caps():
    class Stub:
        base_delay = 2
        max_delay = 10

    class NoJitter:
        def randint(self, low, high):
            return low

    delays = [delay(Stub, attempt, NoJitter()) for attempt in (1, 2, 3, 4, 5)]
    assert delays == [2, 4, 8, 10, 10]  # capped at max_delay


def test_jitter_is_bounded_and_seed_deterministic():
    action = ScriptedAction("fix")
    for _ in range(50):
        value = delay(action, 1, random.Random(123))
        assert value == delay(action, 1, random.Random(123))  # same seed, same wait
    draws = {delay(action, 1, random.Random(seed)) for seed in range(40)}
    assert draws == {2, 3}  # base_delay plus a jitter of 0 or 1
    rng = random.Random(9)
    reference = random.Random(9)
    delay(action, 1, rng)
    reference.randint(0, 1)
    assert rng.getstate() == reference.getstate()  # exactly one draw


def test_lifecycle_open_act_recover():
    action = ScriptedAction("fix")
    engine, monitor = make_engine({"rule_a": action})
    assert engine.verdict() == "idle"
    alert = monitor.fire("rule_a", 5)
    assert engine.verdict() == "active"
    engine.act(None, 5)
    assert action.calls == 1
    incident = engine.active_incidents()[0]
    assert incident.attempts == 1
    assert incident.actions_applied == 1
    assert incident.next_round in (5 + 2, 5 + 3)  # base_delay plus jitter
    engine.act(None, 6)  # inside the backoff window: no call
    assert action.calls == 1
    monitor.clear(alert, 7)
    assert engine.verdict() == "recovered"
    assert engine.incidents[0].status == "recovered"
    assert engine.incidents[0].closed_round == 7
    kinds = [event.kind for event in monitor.collector.events]
    assert _events.EVENT_REMEDIATION in kinds
    assert _events.EVENT_INCIDENT_RECOVERED in kinds


def test_refire_while_active_is_ignored():
    action = ScriptedAction("fix")
    engine, monitor = make_engine({"rule_a": action})
    monitor.fire("rule_a", 5)
    monitor.fire("rule_a", 6)
    assert len(engine.incidents) == 1


def test_noop_burns_attempts_until_unrecoverable():
    # Every attempt noops: the incident must still terminate, in bounded
    # time, as unrecoverable.
    action = ScriptedAction("fix", outcomes=["noop"] * 10)
    engine, monitor = make_engine({"rule_a": action})
    monitor.fire("rule_a", 0)
    drain(engine, 0, 60)
    assert engine.verdict() == "unrecoverable"
    incident = engine.incidents[0]
    assert incident.attempts == MAX_ATTEMPTS
    assert incident.actions_applied == 0  # noops never count as applied
    kinds = [event.kind for event in monitor.collector.events]
    assert _events.EVENT_INCIDENT_UNRECOVERABLE in kinds


def test_third_attempt_marks_unrecoverable_and_nothing_runs_after():
    # A deferral in between is free: only non-deferred attempts count.
    action = ScriptedAction("fix", outcomes=["applied", "deferred", "noop", "applied"])
    engine, monitor = make_engine({"rule_a": action})
    monitor.fire("rule_a", 0)
    incident = engine.active_incidents()[0]
    round_index = 0
    while incident.open:
        assert round_index < 60
        engine.act(None, round_index)
        round_index += 1
    assert action.calls == 4
    assert incident.attempts == 3
    assert incident.actions_applied == 2
    assert incident.status == "unrecoverable"
    assert [entry["kind"] for entry in engine.timeline()][-2:] == [
        "remediation",
        "incident_unrecoverable",
    ]
    # A fourth round — and every later one — never calls the action again.
    drain(engine, round_index, round_index + 40)
    assert action.calls == 4
    assert engine.verdict() == "unrecoverable"


def test_deferred_retries_next_round_for_free():
    action = ScriptedAction("fix", outcomes=["deferred", "deferred", "applied"])
    engine, monitor = make_engine({"rule_a": action})
    monitor.fire("rule_a", 3)
    engine.act(None, 3)
    incident = engine.active_incidents()[0]
    assert incident.attempts == 0  # deferred burns nothing
    assert incident.next_round == 4
    engine.act(None, 4)
    assert incident.attempts == 0
    engine.act(None, 5)
    assert action.calls == 3
    assert incident.attempts == 1
    assert incident.actions_applied == 1


def test_unmapped_rule_waits_without_crashing():
    engine, monitor = make_engine({})
    alert = monitor.fire("mystery_rule", 2)
    drain(engine, 2, 9)
    incident = engine.active_incidents()[0]
    assert incident.attempts == 0
    assert engine.timeline()[-1]["kind"] == "incident_opened"  # never acted
    monitor.clear(alert, 9)
    assert engine.verdict() == "recovered"


def test_timeline_and_summary_are_jsonable():
    import json

    action = ScriptedAction("fix")
    engine, monitor = make_engine({"rule_a": action})
    alert = monitor.fire("rule_a", 1)
    engine.act(None, 1)
    monitor.clear(alert, 3)
    timeline = engine.timeline()
    assert [entry["kind"] for entry in timeline] == [
        "incident_opened",
        "remediation",
        "incident_closed",
    ]
    json.dumps(timeline)
    summary = engine.summary()
    assert summary["verdict"] == "recovered"
    assert summary["incidents_total"] == 1
    json.dumps(summary)
