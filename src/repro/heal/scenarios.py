"""The scenario catalogue: every fault and corruption run as one table row.

Every scenario follows one protocol — deploy the shared ring-of-rings
substrate (:func:`standard_deployment`), converge it cleanly, arm a
:class:`~repro.obs.recovery.RecoveryObserver` on the convergence tracker's
verdict series (plus the health monitor when telemetry is on, plus a
:class:`~repro.heal.engine.RemediationEngine` when managed), inject one
fault, and run. A row of :data:`SCENARIOS` says only
what it injects (a fault row a :class:`~repro.faults.schedule.FaultSchedule`
built on the deployment, a corruption row an inject function) and how long
the run lasts; :func:`run_scenario` does the rest and returns one
:class:`ScenarioResult`.

The fault rows (``python -m repro faults``) run a fixed window plus
recovery rounds and are judged on per-layer time-to-repair:

- ``partition`` — split the population into islands, heal after a window;
- ``zone-outage`` — pause one availability zone, restore it (zombies);
- ``zone-kill`` — kill one zone for good and rebalance survivors;
- ``catastrophe`` — kill a random 30% at once and rebalance;
- ``flaky-links`` — degrade one zone pair (loss + latency), then repair;
- ``pause-resume`` — freeze a random quarter of the nodes, thaw later.

The stabilization rows (``python -m repro heal``) start from corrupted
state (:mod:`repro.heal.harness`: ``poisoned``, ``segregated``, ``stale``)
or from the compound ``partition-churn`` fault (a real cut with the
built-in rendezvous disabled, plus a kill wave), then run until every layer
re-converges within a budget, plus :data:`GRACE_ROUNDS`. The convergence
tracker is reset at injection, so ``stabilize_rounds`` is exactly the
rounds the system needed. Managed runs close the observe → decide → act
loop; unmanaged runs keep the telemetry and drop the actuator — the
differential baseline :func:`run_heal_matrix` pairs across every corruption
mode and :func:`write_heal_bench` lands in ``BENCH_heal.json``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.runtime import Deployment, Runtime
from repro.errors import ConfigurationError
from repro.experiments.topologies import ring_of_rings
from repro.faults.schedule import (
    FaultSchedule,
    catastrophic_failure,
    link_degradation,
    partition,
    pause_resume,
    zone_outage,
)
from repro.faults.transports import FaultTransport, LinkQuality
from repro.faults.zones import ZoneMap
from repro.heal.engine import RemediationEngine
from repro.heal.harness import CORRUPTIONS, corruption_modes
from repro.obs import events as _events
from repro.obs.collector import Collector
from repro.obs.hooks import attach_collector, attach_health
from repro.obs.recovery import RecoveryObserver, RecoveryReport

#: Default zone layout of every zone-aware scenario.
DEFAULT_ZONES = ("zone-a", "zone-b", "zone-c", "zone-d")

#: Corruption severity when none is given (tuned so the unmanaged baseline
#: visibly fails or lags while staying within CI budgets).
DEFAULT_DEGREE = 1.0

#: Extra rounds run after re-convergence so firing alerts can clear and
#: open incidents can close before the verdict is read.
GRACE_ROUNDS = 6

#: A corruption row's injection: mutate the armed deployment at the start of
#: the fault (``window`` and ``degree`` are the row's and the run's) and
#: return a JSON-able description of what it injected.
Inject = Callable[[Deployment, FaultTransport, int, float], Dict[str, Any]]

#: A fault row's schedule, built on the armed deployment at injection
#: (``window`` is the row's).
Build = Callable[[Deployment, int], FaultSchedule]


@dataclass(frozen=True)
class Scenario:
    """One row of the catalogue: what it injects and how long it runs.

    A fault row builds a ``schedule``; a corruption row ``inject``s. The run
    lasts ``window + recovery`` rounds counted from injection; a row with a
    ``budget`` then runs until every layer re-converges (at most ``budget``
    rounds), plus :data:`GRACE_ROUNDS` when it does.
    """

    inject: Optional[Inject] = None
    schedule: Optional[Build] = None
    window: int = 0
    recovery: int = 0
    budget: Optional[int] = None
    zones: bool = False


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    name: str
    n_nodes: int
    seed: int
    deploy_rounds: Optional[int]
    report: RecoveryReport
    drop_reasons: Dict[str, int]
    delayed_exchanges: int
    #: HealthMonitor summary (runs with telemetry), incl. the alert history.
    health: Optional[Dict[str, Any]] = None
    managed: bool = False
    degree: float = DEFAULT_DEGREE
    #: What the injection reported (corruption rows).
    corruption: Dict[str, Any] = field(default_factory=dict)
    #: The fault schedule the run applied (fault rows).
    schedule: Optional[FaultSchedule] = None
    #: Rounds from injection to full re-convergence (None: never within the
    #: budget, or a fault row, which has no budget).
    stabilize_rounds: Optional[int] = None
    budget: Optional[int] = None
    #: Remediation engine summary and timeline (managed runs only).
    remediation: Optional[Dict[str, Any]] = None
    timeline: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """``recovered``, ``degraded`` (not healed / budget ran out), or
        ``unrecoverable`` (an incident used up its remediation attempts)."""
        if (
            self.remediation is not None
            and self.remediation["verdict"] == "unrecoverable"
        ):
            return "unrecoverable"
        if self.budget is None:
            healed = self.report.healed
        else:
            healed = self.stabilize_rounds is not None
        return "recovered" if healed else "degraded"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.name,
            "degree": self.degree,
            "managed": self.managed,
            "nodes": self.n_nodes,
            "seed": self.seed,
            "deploy_rounds": self.deploy_rounds,
            "corruption": dict(self.corruption),
            "stabilize_rounds": self.stabilize_rounds,
            "budget": self.budget,
            "verdict": self.verdict,
            "alerts_fired": (self.health or {}).get("alerts_total", 0),
            "remediation": self.remediation,
        }


def standard_deployment(
    n_nodes: int,
    seed: int,
    core_flavor: str = "vicinity",
    collector: Optional[Collector] = None,
) -> Deployment:
    """A ring-of-rings deployment sized to ``n_nodes`` (extras are spares).

    The shared substrate of every scenario row, so their numbers are
    comparable.
    """
    if n_nodes < 32:
        raise ConfigurationError(
            f"fault scenarios need >= 32 nodes, got {n_nodes}"
        )
    ring_size = 16 if n_nodes >= 64 else 8
    n_rings = max(2, n_nodes // ring_size)
    assembly = ring_of_rings(n_rings=n_rings, ring_size=ring_size)
    deployment = Runtime(assembly, seed=seed, core_flavor=core_flavor).deploy(n_nodes)
    if collector is not None:
        attach_collector(deployment, collector)
    return deployment


def _arm(deployment: Deployment, faults: FaultTransport, collector: Optional[Collector]):
    """Attach the recovery observer and, with telemetry, the health monitor.

    Order matters: the convergence tracker (the engine's first observer)
    refreshes the ``layers_converged`` gauge and the recovery observer the
    ``dead_descriptor_fraction`` gauge each round, and the health monitor —
    added last — evaluates its rules (and so the remediation engine
    decides) on those fresh values. Returns ``(observer, monitor)``.
    """
    observer = RecoveryObserver(faults, deployment.tracker, instrument=collector)
    deployment.engine.add_observer(observer)
    monitor = None if collector is None else attach_health(deployment, collector)
    return observer, monitor


# -- injections -----------------------------------------------------------------


def _stream(deployment: Deployment, space: str, *names):
    return deployment.streams.fork(space).stream(*names)


def _partition(deployment, window, rendezvous=4):
    start = deployment.engine.round
    return partition(deployment, start, start + window, rendezvous)


def _zone_outage(deployment, window):
    start = deployment.engine.round
    return zone_outage(
        deployment, DEFAULT_ZONES[0], start, mode="pause", restore_round=start + window
    )


def _zone_kill(deployment, window):
    """Kill one zone for good; the survivors absorb its roles a round later."""
    start = deployment.engine.round
    return zone_outage(deployment, DEFAULT_ZONES[0], start) + [(start + 1, "rebalance", ())]


def _catastrophe(deployment, window):
    start = deployment.engine.round
    rng = _stream(deployment, "faults", "catastrophe")
    return catastrophic_failure(deployment, rng, start, 0.3) + [(start, "rebalance", ())]


def _flaky_links(deployment, window):
    start = deployment.engine.round
    return link_degradation(
        deployment,
        start,
        LinkQuality(loss=0.6, latency=0.5),
        [(DEFAULT_ZONES[0], DEFAULT_ZONES[1])],
        restore_round=start + window,
    )


def _pause_resume(deployment, window):
    start = deployment.engine.round
    rng = _stream(deployment, "faults", "pause")
    return pause_resume(deployment, rng, start, start + window, fraction=0.25)


def _corrupt(mode: str) -> Inject:
    def inject(deployment, faults, window, degree):
        rng = _stream(deployment, "heal", "corruption", mode)
        info = CORRUPTIONS[mode](deployment, rng, degree)
        faults.record_event(
            deployment.engine.round, "corruption", f"mode={mode} degree={degree}"
        )
        return info

    return inject


def _partition_churn(deployment, window):
    """A real cut whose heal re-seeds nothing (``rendezvous=0``), so the two
    overlays can only be re-joined by the remediation engine — its
    rendezvous re-seed defers while the cut is active, then applies once it
    clears — plus a kill wave two rounds in: a churn spike and
    dead-descriptor debris on top."""
    alive = deployment.network.alive_ids()
    rng = _stream(deployment, "heal", "churn-wave")
    wave = sorted(rng.sample(alive, min(8, max(0, len(alive) - 8))))
    wave_round = deployment.engine.round + 2
    return _partition(deployment, window, rendezvous=0) + [(wave_round, "kill", (wave,))]


#: The catalogue: row name -> what it injects and how long it runs.
SCENARIOS: Dict[str, Scenario] = {
    "partition": Scenario(schedule=_partition, window=20, recovery=60),
    "zone-outage": Scenario(schedule=_zone_outage, window=15, recovery=60, zones=True),
    "zone-kill": Scenario(schedule=_zone_kill, window=15, recovery=60, zones=True),
    "catastrophe": Scenario(schedule=_catastrophe, recovery=80),
    "flaky-links": Scenario(schedule=_flaky_links, window=25, recovery=40, zones=True),
    "pause-resume": Scenario(schedule=_pause_resume, window=20, recovery=60),
    **{mode: Scenario(_corrupt(mode), budget=80) for mode in corruption_modes()},
    "partition-churn": Scenario(schedule=_partition_churn, window=12, budget=100),
}

#: The rows ``repro faults`` runs (fixed length, judged on time-to-repair).
FAULT_ROWS = tuple(name for name, row in SCENARIOS.items() if row.budget is None)


def run_scenario(
    name: str,
    n_nodes: int = 128,
    seed: int = 1,
    collector: Optional[Collector] = None,
    managed: bool = False,
    degree: Optional[float] = None,
    budget: Optional[int] = None,
) -> ScenarioResult:
    """Deploy, converge, arm, inject row ``name``'s fault and run it.

    ``degree`` is the corruption severity handed to the injection;
    ``budget`` overrides the row's re-convergence budget. A row with a
    budget always runs with telemetry (its own collector when none is
    given): the health rules are what a managed run acts on.
    """
    row = SCENARIOS.get(name)
    if row is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; pick one of {', '.join(SCENARIOS)}"
        )
    degree = DEFAULT_DEGREE if degree is None else degree
    budget = row.budget if budget is None else budget
    if collector is None and budget is not None:
        collector = Collector()
    deployment = standard_deployment(n_nodes, seed, collector=collector)
    deploy_rounds = deployment.run_until_converged(120).slowest
    zone_map = None
    if row.zones:
        zone_map = ZoneMap.round_robin(deployment.network.node_ids(), DEFAULT_ZONES)
        zone_map.annotate(deployment.network)
    faults = deployment.install_faults(zone_map)
    observer, monitor = _arm(deployment, faults, collector)
    engine = RemediationEngine.for_deployment(deployment, monitor) if managed else None
    if budget is not None:
        deployment.tracker.reset()
    corruption, schedule = {}, None
    if row.schedule is not None:
        schedule = row.schedule(deployment, row.window)
        schedule.arm(deployment)
    else:
        corruption = row.inject(deployment, faults, row.window, degree)
        collector.emit(
            _events.EVENT_CORRUPTION,
            **{key: value for key, value in corruption.items() if key != "mode"},
            mode=name,
            flavor="managed" if managed else "unmanaged",
        )
    deployment.run(row.window + row.recovery)
    stabilize_rounds = None
    if budget is not None:
        converged = deployment.run_until_converged(budget)
        if converged.converged:
            deployment.run(GRACE_ROUNDS)
        stabilize_rounds = converged.slowest
    report = observer.report()
    if collector is not None and budget is None:
        # Delimit the fault run in the telemetry stream and mirror the
        # fault event log into it (replayed here, off the hot path).
        collector.emit(
            "scenario", scenario=name, nodes=n_nodes, seed=seed,
            deploy_rounds=deploy_rounds,
        )
        for event in faults.events:
            collector.emit(event.kind, at=event.round, detail=str(event.detail))
        collector.emit(
            "scenario_result",
            scenario=name,
            healed=report.healed,
            residual_dead_fraction=report.residual_dead_fraction,
        )
    return ScenarioResult(
        name=name,
        n_nodes=n_nodes,
        seed=seed,
        deploy_rounds=deploy_rounds,
        report=report,
        drop_reasons=deployment.transport.drop_reasons(),
        delayed_exchanges=deployment.transport.total_delayed(),
        health=None if monitor is None else monitor.summary(),
        managed=managed,
        degree=degree,
        corruption=corruption,
        schedule=schedule,
        stabilize_rounds=stabilize_rounds,
        budget=budget,
        remediation=None if engine is None else engine.summary(),
        timeline=[] if engine is None else engine.timeline(),
    )


def run_heal_matrix(
    n_nodes: int = 64,
    seed: int = 7,
    budget: Optional[int] = None,
    degree: Optional[float] = None,
) -> List[Tuple[ScenarioResult, ScenarioResult]]:
    """``(managed, unmanaged)`` runs of every corruption row.

    Each run gets a fresh collector — health-rule state is windowed and
    must not leak across runs.
    """
    return [
        tuple(
            run_scenario(
                mode, n_nodes=n_nodes, seed=seed, managed=managed,
                degree=degree, budget=budget,
            )
            for managed in (True, False)
        )
        for mode in corruption_modes()
    ]


def write_heal_bench(
    pairs: List[Tuple[ScenarioResult, ScenarioResult]],
    json_path: str = "BENCH_heal.json",
) -> str:
    """Write the matrix stabilization numbers as JSON; returns the path.

    The repository benchmark (``BENCHMARK.json``) answers "what does
    assembly cost"; this file answers "how fast does a corrupted system
    come back".
    """
    payload = {
        "benchmark": "heal",
        "entries": [
            {
                "mode": managed.name,
                "degree": managed.degree,
                "nodes": managed.n_nodes,
                "seed": managed.seed,
                "budget": managed.budget,
                "managed": managed.to_dict(),
                "unmanaged": unmanaged.to_dict(),
            }
            for managed, unmanaged in pairs
        ],
    }
    path = pathlib.Path(json_path)
    if path.parent != pathlib.Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _alert_history(alerts: List[Dict[str, Any]]) -> str:
    """``rule@rN (cleared rM), …`` — which rules fired and whether they
    cleared."""
    return ", ".join(
        f"{alert['rule']}@r{alert['round_fired']}"
        + (
            ""
            if alert["round_cleared"] is None
            else f" (cleared r{alert['round_cleared']})"
        )
        for alert in alerts
    )


def format_scenario(result: ScenarioResult) -> str:
    """Human-readable report for one scenario run: the schedule a fault row
    ran (one ``schedule:`` line per event, then a blank line), then the
    time-to-repair report of a fault row or the time-to-stabilize of a row
    with a budget."""
    schedule = "".join(f"schedule: {json.dumps(event)}\n" for event in result.schedule or ())
    return schedule + ("\n" if schedule else "") + _format_report(result)


def _format_report(result: ScenarioResult) -> str:
    health = result.health
    if result.budget is None:
        out = [
            f"scenario {result.name}: nodes={result.n_nodes} seed={result.seed} "
            f"(deployed in {result.deploy_rounds} rounds)",
            result.report.render(),
        ]
        if result.drop_reasons:
            drops = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(result.drop_reasons.items())
            )
            out.append(f"dropped exchanges: {drops}")
        if result.delayed_exchanges:
            out.append(f"delayed exchanges: {result.delayed_exchanges}")
        if health is not None:
            fired = _alert_history(health["alerts"])
            out.append(
                f"health: {health['verdict']} ({health['alerts_active']} active / "
                f"{health['alerts_total']} fired" + (f": {fired}" if fired else "") + ")"
            )
        out.append(f"healed: {'yes' if result.verdict == 'recovered' else 'NO'}")
        return "\n".join(out)
    flavor = "managed" if result.managed else "unmanaged"
    out = [
        f"heal {result.name} ({flavor}): nodes={result.n_nodes} "
        f"seed={result.seed} degree={result.degree} "
        f"(deployed in {result.deploy_rounds} rounds)",
        "time-to-stabilize: "
        + (
            f"{result.stabilize_rounds} rounds"
            if result.stabilize_rounds is not None
            else f"NOT STABILIZED within {result.budget} rounds"
        ),
    ]
    fired = _alert_history(health.get("alerts", []))
    if fired:
        out.append(f"alerts: {fired}")
    if result.remediation is not None:
        summary = result.remediation
        out.append(
            f"remediation: {summary['verdict']} "
            f"({summary['incidents_total']} incident(s), "
            f"{summary['actions_run']} action(s))"
        )
        for entry in result.timeline:
            if entry["kind"] != "remediation":
                continue
            detail = entry.get("detail", {})
            rendered = " ".join(f"{key}={detail[key]}" for key in sorted(detail))
            out.append(
                f"  r{entry['round']}: {entry['rule']} -> {entry['action']} "
                f"[a{entry['attempt']}] {entry['outcome']}"
                + (f" ({rendered})" if rendered else "")
            )
    out.append(f"verdict: {result.verdict}")
    return "\n".join(out)


def format_heal_matrix(pairs: List[Tuple[ScenarioResult, ScenarioResult]]) -> str:
    """Side-by-side managed/unmanaged stabilization table."""

    def cell(result: ScenarioResult) -> str:
        if result.stabilize_rounds is None:
            return f">{result.budget}"
        return str(result.stabilize_rounds)

    out = ["mode        degree  managed     unmanaged   speedup"]
    for managed, unmanaged in pairs:
        if managed.stabilize_rounds is None:
            speedup = "-"
        elif unmanaged.stabilize_rounds is None:
            speedup = f">{unmanaged.budget / max(1, managed.stabilize_rounds):.1f}x"
        else:
            speedup = (
                f"{unmanaged.stabilize_rounds / max(1, managed.stabilize_rounds):.1f}x"
            )
        out.append(
            f"{managed.name:<11} {managed.degree:<7} "
            f"{cell(managed):<11} {cell(unmanaged):<11} {speedup}"
        )
    return "\n".join(out)
