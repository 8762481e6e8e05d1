"""The remediation engine — observe → decide → act, closed per round.

:class:`RemediationEngine` is the autonomic controller pairing the health
monitor (observe/decide) with the action library (act):

- it **subscribes** to :class:`~repro.obs.health.HealthMonitor` alert
  transitions: a firing alert opens an :class:`Incident`, a clearing alert
  closes it as recovered;
- it **acts** in the engine's act phase (it is a
  :class:`~repro.sim.controls.Actuator`, running after every observer of
  the same round), applying the action mapped to each open incident's rule
  with deterministic jittered backoff between attempts (:func:`delay`);
- it gives up after :data:`MAX_ATTEMPTS` non-deferred attempts: the
  incident is marked ``unrecoverable`` and its action never runs again.

Every decision lands in three places: typed events on the collector
(``remediation`` / ``incident_recovered`` / ``incident_unrecoverable``), a
JSONL-able :meth:`timeline`, and the :meth:`summary`/:meth:`verdict` the
heal scenarios embed in their results.

Determinism: the engine draws only from one ``streams.fork("heal")``
stream handed in at construction — one jitter draw per non-deferred
attempt; with the monitor evaluating rules over deterministic telemetry, a
managed run is a pure function of its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.heal.actions import RemediationAction, default_actions
from repro.obs import events as _events
from repro.sim.controls import Actuator
from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import Deployment
    from repro.obs.health import Alert, HealthMonitor

#: Non-deferred attempts an incident gets before it is ``unrecoverable``.
MAX_ATTEMPTS = 3
#: Growth factor of the wait between attempts.
BACKOFF_FACTOR = 2
#: Upper bound (inclusive) of the uniform integer jitter added to each wait.
JITTER = 1


def delay(action: RemediationAction, attempt: int, rng: random.Random) -> int:
    """Rounds to wait after the ``attempt``-th (1-based) attempt of ``action``.

    ``min(max_delay, base_delay * BACKOFF_FACTOR**(attempt-1))`` plus one
    jitter draw from the caller's seeded stream, so two runs with the same
    seed retry at the same rounds.
    """
    base = min(action.max_delay, action.base_delay * BACKOFF_FACTOR ** (attempt - 1))
    return base + rng.randint(0, JITTER)


@dataclass
class Incident:
    """One alert's remediation lifecycle."""

    rule: str
    severity: str
    opened_round: int
    attempts: int = 0
    actions_applied: int = 0
    next_round: int = 0
    status: str = "open"  # open | recovered | unrecoverable
    closed_round: Optional[int] = None
    alert: Optional["Alert"] = field(default=None, repr=False, compare=False)

    @property
    def open(self) -> bool:
        return self.status == "open"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "opened_round": self.opened_round,
            "closed_round": self.closed_round,
            "status": self.status,
            "attempts": self.attempts,
            "actions_applied": self.actions_applied,
        }


class RemediationEngine(Actuator):
    """Closed-loop remediation over one deployment.

    Parameters
    ----------
    deployment:
        The live deployment to repair (actions mutate its network, views,
        and role map).
    monitor:
        The health monitor to subscribe to; its collector also receives
        the engine's typed events.
    rng:
        The seeded stream for backoff jitter and every action's draws —
        fork ``"heal"`` off the deployment's streams (which
        :meth:`for_deployment` does).
    actions:
        Rule-name → action mapping (defaults to
        :func:`~repro.heal.actions.default_actions`). An incident of an
        unmapped rule stays open, unacted, until its alert clears.
    """

    def __init__(
        self,
        deployment: "Deployment",
        monitor: "HealthMonitor",
        rng: random.Random,
        actions: Optional[Dict[str, RemediationAction]] = None,
    ):
        self.deployment = deployment
        self.monitor = monitor
        self.collector = monitor.collector
        self.rng = rng
        self.actions = dict(actions) if actions is not None else default_actions()
        #: Full incident history, in opening order (closed ones stay).
        self.incidents: List[Incident] = []
        self._active: Dict[str, Incident] = {}
        self._timeline: List[Dict[str, Any]] = []
        self.actions_run = 0
        monitor.subscribe(self._on_alert)

    @classmethod
    def for_deployment(
        cls,
        deployment: "Deployment",
        monitor: "HealthMonitor",
        actions: Optional[Dict[str, RemediationAction]] = None,
    ) -> "RemediationEngine":
        """Build, wire, and register an engine on ``deployment``.

        Subscribes to the monitor, registers the engine as an actuator of
        the deployment's simulation engine, derives the heal RNG from the
        deployment's seed space (``streams.fork("heal")``), and exposes
        the engine as ``deployment.heal``.
        """
        rng = deployment.streams.fork("heal").stream("engine")
        engine = cls(deployment, monitor, rng, actions=actions)
        deployment.engine.add_actuator(engine)
        deployment.heal = engine  # type: ignore[attr-defined]
        return engine

    # -- decide: alert transitions --------------------------------------------

    def _on_alert(self, alert: "Alert", fired: bool, round_index: int) -> None:
        if fired:
            if alert.rule in self._active:
                return  # already tracked (monitor alerts are edge-triggered)
            incident = Incident(
                rule=alert.rule,
                severity=alert.severity,
                opened_round=round_index,
                next_round=round_index,
                alert=alert,
            )
            self._active[alert.rule] = incident
            self.incidents.append(incident)
            self._record(round_index, "incident_opened", incident)
            return
        incident = self._active.pop(alert.rule, None)
        if incident is None:
            return
        incident.closed_round = round_index
        if incident.status == "open":
            incident.status = "recovered"
            self.collector.emit(
                _events.EVENT_INCIDENT_RECOVERED,
                rule=incident.rule,
                actions_applied=incident.actions_applied,
                rounds_open=round_index - incident.opened_round,
            )
        self._record(round_index, "incident_closed", incident)

    # -- act: the engine's act phase ------------------------------------------

    def act(self, network: Network, round_index: int) -> None:
        for rule in sorted(self._active):
            incident = self._active[rule]
            action = self.actions.get(rule)
            if action is None or not incident.open or round_index < incident.next_round:
                continue
            result = action.apply(
                self.deployment, incident.alert, round_index, self.rng
            )
            outcome = str(result.get("outcome", "applied"))
            self.actions_run += 1
            detail = {
                key: value for key, value in result.items() if key != "outcome"
            }
            self.collector.emit(
                _events.EVENT_REMEDIATION,
                rule=rule,
                action=action.name,
                outcome=outcome,
            )
            self._record(
                round_index,
                "remediation",
                incident,
                action=action.name,
                outcome=outcome,
                detail=detail,
            )
            if outcome == "deferred":
                # Free retry: acting now was futile (e.g. an active cut),
                # not wrong — check again next round.
                incident.next_round = round_index + 1
                continue
            incident.attempts += 1
            if outcome == "applied":
                incident.actions_applied += 1
            incident.next_round = round_index + delay(
                action, incident.attempts, self.rng
            )
            if incident.attempts >= MAX_ATTEMPTS:
                incident.status = "unrecoverable"
                self.collector.emit(
                    _events.EVENT_INCIDENT_UNRECOVERABLE,
                    rule=incident.rule,
                    actions_applied=incident.actions_applied,
                    rounds_open=round_index - incident.opened_round,
                )
                self._record(round_index, "incident_unrecoverable", incident)

    # -- reporting -------------------------------------------------------------

    def _record(
        self,
        round_index: int,
        kind: str,
        incident: Incident,
        action: str = "",
        outcome: str = "",
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        entry: Dict[str, Any] = {
            "round": round_index,
            "kind": kind,
            "rule": incident.rule,
            "attempt": incident.attempts,
            "status": incident.status,
        }
        if action:
            entry["action"] = action
        if outcome:
            entry["outcome"] = outcome
        if detail:
            entry["detail"] = dict(detail)
        self._timeline.append(entry)

    def timeline(self) -> List[Dict[str, Any]]:
        """The remediation timeline as JSONL-ready plain dicts."""
        return [dict(entry) for entry in self._timeline]

    def active_incidents(self) -> List[Incident]:
        """Incidents whose alert is still firing, sorted by rule name."""
        return [self._active[rule] for rule in sorted(self._active)]

    def verdict(self) -> str:
        """``idle`` (nothing ever fired), ``active``, ``recovered``, or
        ``unrecoverable`` (some incident used up its attempts)."""
        if any(i.status == "unrecoverable" for i in self.incidents):
            return "unrecoverable"
        if self._active:
            return "active"
        if self.incidents:
            return "recovered"
        return "idle"

    def summary(self) -> Dict[str, Any]:
        """Plain-data view (scenario results / CLI reports)."""
        return {
            "verdict": self.verdict(),
            "incidents_total": len(self.incidents),
            "incidents_active": len(self._active),
            "actions_run": self.actions_run,
            "incidents": [incident.to_dict() for incident in self.incidents],
        }
