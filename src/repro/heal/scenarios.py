"""Closed-loop recovery scenarios: managed vs unmanaged, by corruption mode.

Each scenario deploys the shared ring-of-rings substrate
(:func:`~repro.faults.scenarios.standard_deployment`), converges it
cleanly, injects one corruption mode from :mod:`repro.heal.harness`, and
measures **time-to-stabilize**: the convergence tracker is reset at the
moment of corruption, so the report's slowest layer round is exactly the
rounds the system needed to fully re-converge (``None`` when the budget
ran out first).

Every scenario runs in two flavors:

- **managed** — a :class:`~repro.heal.engine.RemediationEngine` closes the
  observe → decide → act loop; the result embeds its remediation timeline
  and verdict next to the health summary;
- **unmanaged** — same telemetry, no actuator: the differential baseline
  showing what the self-organizing layers can (and cannot) repair alone.

``run_heal_matrix`` pairs both flavors across every corruption mode;
``run_partition_churn`` is the compound end-to-end scenario (a real cut
plus a kill wave, with the built-in rendezvous disabled so only the
remediation engine can re-join the overlays); ``write_heal_bench`` lands
the stabilization numbers in ``BENCH_heal.json`` alongside the gossip
trajectory.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.faults.controls import Partition
from repro.faults.scenarios import standard_deployment
from repro.heal.engine import RemediationEngine
from repro.heal.harness import CORRUPTIONS, corruption_modes
from repro.obs import events as _events
from repro.obs.collector import Collector
from repro.obs.hooks import attach_health
from repro.obs.recovery import RecoveryObserver

#: Default corruption severity per mode (tuned so the unmanaged baseline
#: visibly fails or lags while staying within CI budgets).
DEFAULT_DEGREES: Dict[str, float] = {
    "segregated": 1.0,
    "poisoned": 1.0,
    "stale": 1.0,
}

#: Extra rounds run after re-convergence so firing alerts can clear and
#: open incidents can close before the verdict is read.
GRACE_ROUNDS = 6


@dataclass
class HealScenarioResult:
    """Outcome of one corruption scenario run (one flavor)."""

    mode: str
    degree: float
    managed: bool
    n_nodes: int
    seed: int
    deploy_rounds: Optional[int]
    corruption: Dict[str, Any]
    #: Rounds from corruption to full re-convergence (None: never, within
    #: the budget).
    stabilize_rounds: Optional[int]
    budget: int
    health: Dict[str, Any]
    #: Remediation engine summary (managed runs only).
    remediation: Optional[Dict[str, Any]] = None
    #: Remediation timeline, JSONL-ready (empty on unmanaged runs).
    timeline: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.stabilize_rounds is not None

    @property
    def verdict(self) -> str:
        """``recovered``, ``degraded`` (budget ran out), or
        ``unrecoverable`` (the engine exhausted its escalation ladder)."""
        if (
            self.remediation is not None
            and self.remediation["verdict"] == "unrecoverable"
        ):
            return "unrecoverable"
        return "recovered" if self.converged else "degraded"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "degree": self.degree,
            "managed": self.managed,
            "nodes": self.n_nodes,
            "seed": self.seed,
            "deploy_rounds": self.deploy_rounds,
            "corruption": dict(self.corruption),
            "stabilize_rounds": self.stabilize_rounds,
            "budget": self.budget,
            "verdict": self.verdict,
            "alerts_fired": self.health.get("alerts_total", 0),
            "remediation": self.remediation,
        }


def _arm(deployment, collector: Collector):
    """Recovery observer + health monitor over an (inactive) fault plane.

    The plane stays fault-free unless the scenario installs controls, so
    arming it never perturbs the run; the recovery observer is what feeds
    the ``layers_converged`` and ``dead_descriptor_fraction`` gauges the
    health rules (and therefore the remediation engine) decide on.
    """
    plane = deployment.faults or deployment.install_faults()
    observer = RecoveryObserver.for_deployment(
        deployment, plane, instrument=collector
    )
    deployment.engine.add_observer(observer)
    deployment.recovery = observer  # type: ignore[attr-defined]
    monitor = attach_health(deployment, collector)
    return plane, observer, monitor


def run_heal_scenario(
    mode: str,
    n_nodes: int = 64,
    seed: int = 7,
    degree: Optional[float] = None,
    budget: int = 80,
    managed: bool = True,
    converge_rounds: int = 120,
    collector: Optional[Collector] = None,
) -> HealScenarioResult:
    """Converge, corrupt with ``mode``, and measure time-to-stabilize."""
    if mode not in CORRUPTIONS:
        raise ConfigurationError(
            f"unknown corruption mode {mode!r}; pick one of "
            f"{', '.join(corruption_modes())}"
        )
    if degree is None:
        degree = DEFAULT_DEGREES[mode]
    if collector is None:
        collector = Collector()
    deployment = standard_deployment(n_nodes, seed, collector=collector)
    deploy_rounds = deployment.run_until_converged(converge_rounds).slowest
    plane, _, monitor = _arm(deployment, collector)
    engine = (
        RemediationEngine.for_deployment(deployment, monitor) if managed else None
    )
    rng = deployment.streams.fork("heal").stream("corruption", mode)
    info = CORRUPTIONS[mode](deployment, rng, degree)
    plane.record_event(
        deployment.engine.round, "corruption", f"mode={mode} degree={degree}"
    )
    collector.emit(
        _events.EVENT_CORRUPTION,
        **{key: value for key, value in info.items() if key != "mode"},
        mode=mode,
        flavor="managed" if managed else "unmanaged",
    )
    deployment.tracker.reset()
    report = deployment.run_until_converged(budget)
    if report.converged:
        deployment.run(GRACE_ROUNDS)
    return HealScenarioResult(
        mode=mode,
        degree=degree,
        managed=managed,
        n_nodes=n_nodes,
        seed=seed,
        deploy_rounds=deploy_rounds,
        corruption=info,
        stabilize_rounds=report.slowest,
        budget=budget,
        health=monitor.summary(),
        remediation=engine.summary() if engine is not None else None,
        timeline=engine.timeline() if engine is not None else [],
    )


def run_partition_churn(
    n_nodes: int = 64,
    seed: int = 7,
    window: int = 12,
    kills: int = 8,
    budget: int = 100,
    collector: Optional[Collector] = None,
) -> HealScenarioResult:
    """The compound end-to-end scenario: a real cut plus a kill wave.

    The partition control runs with ``rendezvous=0`` — the built-in heal
    path clears the cut but deliberately re-seeds nothing, so the two
    segregated overlays can only be re-joined by the remediation engine
    (whose rendezvous re-seed *defers* while the cut is active, then
    applies once it clears). The mid-cut kill wave adds a churn spike and
    dead-descriptor debris on top. Always managed.
    """
    if collector is None:
        collector = Collector()
    deployment = standard_deployment(n_nodes, seed, collector=collector)
    deploy_rounds = deployment.run_until_converged(120).slowest
    plane, _, monitor = _arm(deployment, collector)
    engine = RemediationEngine.for_deployment(deployment, monitor)
    start = deployment.engine.round
    deployment.engine.add_control(
        Partition(
            plane,
            at_round=start,
            heal_round=start + window,
            islands=2,
            rng=deployment.streams.fork("faults").stream("partition"),
            rendezvous=0,
        )
    )
    deployment.tracker.reset()
    deployment.run(2)
    rng = deployment.streams.fork("heal").stream("churn-wave")
    alive = deployment.network.alive_ids()
    victims = sorted(rng.sample(alive, min(kills, max(0, len(alive) - 8))))
    for victim in victims:
        deployment.network.kill(victim)
    plane.record_event(
        deployment.engine.round, "catastrophe", f"killed={len(victims)}"
    )
    deployment.run(max(0, window - 2))
    report = deployment.run_until_converged(budget)
    if report.converged:
        deployment.run(GRACE_ROUNDS)
    return HealScenarioResult(
        mode="partition-churn",
        degree=1.0,
        managed=True,
        n_nodes=n_nodes,
        seed=seed,
        deploy_rounds=deploy_rounds,
        corruption={
            "mode": "partition-churn",
            "window": window,
            "killed": len(victims),
        },
        stabilize_rounds=report.slowest,
        budget=budget,
        health=monitor.summary(),
        remediation=engine.summary(),
        timeline=engine.timeline(),
    )


def run_heal_matrix(
    n_nodes: int = 64,
    seed: int = 7,
    budget: int = 80,
    degrees: Optional[Dict[str, float]] = None,
) -> List[Dict[str, Any]]:
    """Managed vs unmanaged across every corruption mode.

    Returns one entry per mode: ``{"mode", "degree", "managed",
    "unmanaged"}`` with both :class:`HealScenarioResult` flavors. Each run
    gets a fresh collector — health-rule state is windowed and must not
    leak across runs.
    """
    entries: List[Dict[str, Any]] = []
    for mode in corruption_modes():
        degree = (degrees or {}).get(mode, DEFAULT_DEGREES[mode])
        entries.append(
            {
                "mode": mode,
                "degree": degree,
                "managed": run_heal_scenario(
                    mode, n_nodes=n_nodes, seed=seed, degree=degree,
                    budget=budget, managed=True,
                ),
                "unmanaged": run_heal_scenario(
                    mode, n_nodes=n_nodes, seed=seed, degree=degree,
                    budget=budget, managed=False,
                ),
            }
        )
    return entries


def run_degree_sweep(
    mode: str,
    degrees: Optional[List[float]] = None,
    n_nodes: int = 64,
    seed: int = 7,
    budget: int = 80,
) -> List[HealScenarioResult]:
    """Time-to-stabilize vs corruption degree (managed runs)."""
    if degrees is None:
        degrees = [0.25, 0.5, 0.75, 1.0]
    return [
        run_heal_scenario(
            mode, n_nodes=n_nodes, seed=seed, degree=degree, budget=budget
        )
        for degree in degrees
    ]


def write_heal_bench(
    entries: List[Dict[str, Any]], json_path: str = "BENCH_heal.json"
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
                "mode": entry["mode"],
                "degree": entry["degree"],
                "nodes": entry["managed"].n_nodes,
                "seed": entry["managed"].seed,
                "budget": entry["managed"].budget,
                "managed": entry["managed"].to_dict(),
                "unmanaged": entry["unmanaged"].to_dict(),
            }
            for entry in entries
        ],
    }
    path = pathlib.Path(json_path)
    if path.parent != pathlib.Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return str(path)


def format_heal_scenario(result: HealScenarioResult) -> str:
    """Human-readable report for one scenario run."""
    flavor = "managed" if result.managed else "unmanaged"
    out = [
        f"heal {result.mode} ({flavor}): nodes={result.n_nodes} "
        f"seed={result.seed} degree={result.degree} "
        f"(deployed in {result.deploy_rounds} rounds)",
        "time-to-stabilize: "
        + (
            f"{result.stabilize_rounds} rounds"
            if result.stabilize_rounds is not None
            else f"NOT STABILIZED within {result.budget} rounds"
        ),
    ]
    alerts = result.health.get("alerts", [])
    if alerts:
        fired = ", ".join(
            f"{alert['rule']}@r{alert['round_fired']}"
            + (
                ""
                if alert["round_cleared"] is None
                else f" (cleared r{alert['round_cleared']})"
            )
            for alert in alerts
        )
        out.append(f"alerts: {fired}")
    if result.remediation is not None:
        summary = result.remediation
        out.append(
            f"remediation: {summary['verdict']} "
            f"({summary['incidents_total']} incident(s), "
            f"{summary['actions_run']} action(s), "
            f"{summary['escalations']} escalation(s))"
        )
        for entry in result.timeline:
            if entry["kind"] != "remediation":
                continue
            detail = entry.get("detail", {})
            rendered = " ".join(
                f"{key}={detail[key]}" for key in sorted(detail)
            )
            out.append(
                f"  r{entry['round']}: {entry['rule']} -> {entry['action']} "
                f"[L{entry['level']} a{entry['attempt']}] {entry['outcome']}"
                + (f" ({rendered})" if rendered else "")
            )
    out.append(f"verdict: {result.verdict}")
    return "\n".join(out)


def format_heal_matrix(entries: List[Dict[str, Any]]) -> str:
    """Side-by-side managed/unmanaged stabilization table."""
    out = ["mode        degree  managed     unmanaged   speedup"]
    for entry in entries:
        managed = entry["managed"]
        unmanaged = entry["unmanaged"]

        def cell(result: HealScenarioResult) -> str:
            if result.stabilize_rounds is None:
                return f">{result.budget}"
            return str(result.stabilize_rounds)

        if managed.stabilize_rounds is None:
            speedup = "-"
        elif unmanaged.stabilize_rounds is None:
            speedup = f">{unmanaged.budget / max(1, managed.stabilize_rounds):.1f}x"
        else:
            speedup = (
                f"{unmanaged.stabilize_rounds / max(1, managed.stabilize_rounds):.1f}x"
            )
        out.append(
            f"{entry['mode']:<11} {entry['degree']:<7} "
            f"{cell(managed):<11} {cell(unmanaged):<11} {speedup}"
        )
    return "\n".join(out)
