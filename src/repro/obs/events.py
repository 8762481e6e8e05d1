"""The typed event taxonomy of the observability pipeline.

Every event kind the runtime emits is declared here with a one-line
description; exporters and dashboards can rely on this registry instead of
reverse-engineering free-form strings. Emitting an unknown kind is allowed
(instruments are extensible), but :class:`~repro.obs.collector.Collector`
counts unknown kinds separately so taxonomy drift is visible.

The event *record* type is :class:`~repro.obs.trace.TraceEvent` — one
dataclass shared by the tracer and the collector.
"""

from __future__ import annotations

from typing import Dict

# -- lifecycle ----------------------------------------------------------------
EVENT_DEPLOY = "deploy"
EVENT_NODE_CRASH = "node_crash"
EVENT_NODE_LEAVE = "node_leave"
EVENT_NODE_UP = "node_up"
EVENT_NODE_ROUND = "node_round"
EVENT_LAYER_CONVERGED = "layer_converged"

# -- faults (mirrors repro.faults.transports.FaultEvent kinds) ----------------
EVENT_PARTITION = "partition"
EVENT_HEAL = "heal"
EVENT_PAUSE = "pause"
EVENT_RESUME = "resume"
EVENT_DEGRADE = "degrade"
EVENT_RESTORE = "restore"
EVENT_ZONE_KILL = "zone_kill"
EVENT_ZONE_PAUSE = "zone_pause"
EVENT_ZONE_RESTORE = "zone_restore"
EVENT_CATASTROPHE = "catastrophe"
EVENT_REBALANCE = "rebalance"

# -- scenarios ----------------------------------------------------------------
EVENT_SCENARIO = "scenario"
EVENT_SCENARIO_RESULT = "scenario_result"

# -- health monitoring (repro.obs.health) -------------------------------------
EVENT_ALERT = "alert"
EVENT_ALERT_CLEARED = "alert_cleared"

# -- self-healing (repro.heal) -------------------------------------------------
EVENT_CORRUPTION = "corruption"
EVENT_REMEDIATION = "remediation"
EVENT_INCIDENT_RECOVERED = "incident_recovered"
EVENT_INCIDENT_UNRECOVERABLE = "incident_unrecoverable"

#: kind → one-line description. The single source of truth for exporters,
#: docs/observability.md, and the taxonomy tests.
TAXONOMY: Dict[str, str] = {
    EVENT_DEPLOY: "an assembly was deployed onto a node population",
    EVENT_NODE_CRASH: "a known-alive node was observed dead (still present)",
    EVENT_NODE_LEAVE: "a known-alive node left the network entirely",
    EVENT_NODE_UP: "a node appeared alive (join or revival)",
    EVENT_NODE_ROUND: "one live swarm node finished a gossip round",
    EVENT_LAYER_CONVERGED: "a runtime layer's convergence predicate first held",
    EVENT_PARTITION: "the fault plane split the population into islands",
    EVENT_HEAL: "an active partition was healed",
    EVENT_PAUSE: "a set of nodes was frozen (zombie churn)",
    EVENT_RESUME: "paused nodes were thawed with stale state",
    EVENT_DEGRADE: "zone-pair link quality rules were installed (loss/latency)",
    EVENT_RESTORE: "degraded links were restored to perfect quality",
    EVENT_ZONE_KILL: "one availability zone went dark for good (crash-stop)",
    EVENT_ZONE_PAUSE: "one availability zone went dark with its state (pause)",
    EVENT_ZONE_RESTORE: "a dark availability zone came back",
    EVENT_CATASTROPHE: "a correlated kill wave removed part of the population",
    EVENT_REBALANCE: "the role assignment was re-run over the live population",
    EVENT_SCENARIO: "a fault scenario run started",
    EVENT_SCENARIO_RESULT: "a fault scenario run finished with a verdict",
    EVENT_ALERT: "a health rule turned unhealthy (typed, with evidence)",
    EVENT_ALERT_CLEARED: "a previously firing health rule turned healthy again",
    EVENT_CORRUPTION: "the adversarial harness seeded corrupted overlay state",
    EVENT_REMEDIATION: "a remediation action ran against an open incident",
    EVENT_INCIDENT_RECOVERED: "a remediation incident closed (alert cleared)",
    EVENT_INCIDENT_UNRECOVERABLE: "an incident used up its remediation attempts",
}


def is_known(kind: str) -> bool:
    """Whether ``kind`` is part of the declared taxonomy."""
    return kind in TAXONOMY
