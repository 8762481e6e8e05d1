"""The standard fault-matrix scenario suite.

Each scenario follows the same protocol: deploy a ring-of-rings assembly,
converge it cleanly, then inject one class of correlated failure and keep
running through the repair window while a
:class:`~repro.obs.recovery.RecoveryObserver` measures every layer's
time-to-repair. The suite is what ``python -m repro faults`` runs:

- ``partition`` — split the population into islands, heal after a window;
- ``zone-outage`` — pause one availability zone, restore it (zombies);
- ``zone-kill`` — kill one zone for good and rebalance survivors;
- ``catastrophe`` — kill a random 30% at once and rebalance;
- ``flaky-links`` — degrade one zone pair (loss + latency), then repair;
- ``pause-resume`` — freeze a random quarter of the nodes, thaw later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.runtime import Deployment, Runtime, RuntimeConfig
from repro.errors import ConfigurationError
from repro.experiments.topologies import ring_of_rings
from repro.faults.controls import (
    LinkDegradation,
    Partition,
    PauseResume,
    ZoneOutage,
)
from repro.faults.plane import FaultPlane, LinkQuality
from repro.faults.zones import ZoneMap
from repro.obs.collector import Collector
from repro.obs.hooks import attach_collector
from repro.obs.recovery import RecoveryObserver, RecoveryReport

#: Default zone layout of every zone-aware scenario.
DEFAULT_ZONES = ("zone-a", "zone-b", "zone-c", "zone-d")


@dataclass
class ScenarioResult:
    """Outcome of one fault scenario run."""

    name: str
    n_nodes: int
    seed: int
    deploy_rounds: Optional[int]
    report: RecoveryReport
    drop_reasons: Dict[str, int]
    delayed_exchanges: int
    #: HealthMonitor summary (only on instrumented runs), incl. the alert
    #: history — which rules fired during the fault window and whether they
    #: cleared after healing.
    health: Optional[Dict] = None

    @property
    def healed(self) -> bool:
        return self.report.healed


def standard_deployment(
    n_nodes: int,
    seed: int,
    config: Optional[RuntimeConfig] = None,
    collector: Optional[Collector] = None,
) -> Deployment:
    """A ring-of-rings deployment sized to ``n_nodes`` (extras are spares).

    The shared substrate of every adversarial harness: the fault matrix
    here and the corruption scenarios of :mod:`repro.heal.scenarios` deploy
    through this one helper so their numbers are comparable.
    """
    if n_nodes < 32:
        raise ConfigurationError(
            f"fault scenarios need >= 32 nodes, got {n_nodes}"
        )
    ring_size = 16 if n_nodes >= 64 else 8
    n_rings = max(2, n_nodes // ring_size)
    assembly = ring_of_rings(n_rings=n_rings, ring_size=ring_size)
    deployment = Runtime(assembly, config=config, seed=seed).deploy(n_nodes)
    if collector is not None:
        attach_collector(deployment, collector)
    return deployment


#: Internal alias kept for the scenario runners below.
_deploy = standard_deployment


def _arm_recovery(
    deployment: Deployment,
    plane: FaultPlane,
    collector: Optional[Collector] = None,
) -> RecoveryObserver:
    """Attach the recovery observer (and, when instrumented, the health
    monitor) for a fault run.

    Order matters: the recovery observer refreshes the ``layers_converged``
    and ``dead_descriptor_fraction`` gauges each round, and the health
    monitor — added last — evaluates its rules against those fresh values.
    """
    observer = RecoveryObserver.for_deployment(
        deployment, plane, instrument=collector
    )
    deployment.engine.add_observer(observer)
    deployment.recovery = observer  # type: ignore[attr-defined]
    if collector is not None:
        from repro.obs.hooks import attach_health

        attach_health(deployment, collector)
    return observer


def _result(
    name: str,
    deployment: Deployment,
    n_nodes: int,
    seed: int,
    deploy_rounds,
    collector: Optional[Collector] = None,
) -> ScenarioResult:
    observer: RecoveryObserver = deployment.recovery  # type: ignore[attr-defined]
    report = observer.report()
    monitor = getattr(collector, "health", None) if collector is not None else None
    if collector is not None:
        collector.emit(
            "scenario",
            scenario=name,
            nodes=n_nodes,
            seed=seed,
            deploy_rounds=deploy_rounds,
        )
        # Mirror the fault plane's event log into the telemetry stream: the
        # plane records injection/heal events as the scenario runs, and
        # replaying them here keeps worker-side state out of the hot path.
        for event in observer.plane.events:
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
    )


def run_partition(
    n_nodes: int = 128,
    seed: int = 1,
    islands: int = 2,
    window: int = 20,
    recovery_rounds: int = 60,
    converge_rounds: int = 120,
    collector: Optional[Collector] = None,
) -> ScenarioResult:
    """Partition-and-heal: the acceptance scenario of the fault subsystem."""
    deployment = _deploy(n_nodes, seed, collector=collector)
    deploy_rounds = deployment.run_until_converged(converge_rounds).slowest
    plane = deployment.install_faults()
    _arm_recovery(deployment, plane, collector)
    start = deployment.engine.round
    deployment.engine.add_control(
        Partition(
            plane,
            at_round=start,
            heal_round=start + window,
            islands=islands,
            rng=deployment.streams.fork("faults").stream("partition"),
        )
    )
    deployment.run(window + recovery_rounds)
    return _result(
        "partition", deployment, n_nodes, seed, deploy_rounds, collector=collector
    )


def run_zone_outage(
    n_nodes: int = 128,
    seed: int = 1,
    window: int = 15,
    recovery_rounds: int = 60,
    converge_rounds: int = 120,
    mode: str = "pause",
    collector: Optional[Collector] = None,
) -> ScenarioResult:
    """One availability zone goes dark; paused zones come back as zombies."""
    deployment = _deploy(n_nodes, seed, collector=collector)
    deploy_rounds = deployment.run_until_converged(converge_rounds).slowest
    plane = _prepare_zone_plane(deployment, collector=collector)
    start = deployment.engine.round
    restore = start + window if mode == "pause" else None
    deployment.engine.add_control(
        ZoneOutage(
            plane,
            zone=DEFAULT_ZONES[0],
            at_round=start,
            mode=mode,
            restore_round=restore,
        )
    )
    if mode == "kill":
        # Crash-stop outages need the assignment rule re-run so survivors
        # and spares absorb the vacated roles (the self-healing reaction).
        deployment.run(1)
        deployment.rebalance()
        plane.record_event(deployment.engine.round, "rebalance", "roles reassigned")
        deployment.run(window + recovery_rounds - 1)
    else:
        deployment.run(window + recovery_rounds)
    name = "zone-outage" if mode == "pause" else "zone-kill"
    return _result(
        name, deployment, n_nodes, seed, deploy_rounds, collector=collector
    )


def _prepare_zone_plane(
    deployment: Deployment, collector: Optional[Collector] = None
) -> FaultPlane:
    zone_map = ZoneMap.round_robin(deployment.network.node_ids(), DEFAULT_ZONES)
    zone_map.annotate(deployment.network)
    plane = deployment.install_faults(FaultPlane(zones=zone_map))
    _arm_recovery(deployment, plane, collector)
    return plane


def run_catastrophe(
    n_nodes: int = 128,
    seed: int = 1,
    fraction: float = 0.3,
    recovery_rounds: int = 80,
    converge_rounds: int = 120,
    collector: Optional[Collector] = None,
) -> ScenarioResult:
    """A 30% correlated kill followed by rebalancing and self-repair."""
    deployment = _deploy(n_nodes, seed, collector=collector)
    deploy_rounds = deployment.run_until_converged(converge_rounds).slowest
    plane = deployment.install_faults()
    _arm_recovery(deployment, plane, collector)
    rng = deployment.streams.fork("faults").stream("catastrophe")
    alive = list(deployment.network.alive_ids())
    victims = rng.sample(alive, int(len(alive) * fraction))
    for node_id in victims:
        deployment.network.kill(node_id)
    plane.record_event(
        deployment.engine.round, "catastrophe", f"killed={len(victims)}"
    )
    deployment.rebalance()
    plane.record_event(deployment.engine.round, "rebalance", "roles reassigned")
    deployment.run(recovery_rounds)
    return _result(
        "catastrophe", deployment, n_nodes, seed, deploy_rounds, collector=collector
    )


def run_flaky_links(
    n_nodes: int = 128,
    seed: int = 1,
    window: int = 25,
    recovery_rounds: int = 40,
    converge_rounds: int = 120,
    loss: float = 0.6,
    latency: float = 0.5,
    collector: Optional[Collector] = None,
) -> ScenarioResult:
    """Degrade the zone-a <-> zone-b paths (loss + latency), then repair."""
    deployment = _deploy(n_nodes, seed, collector=collector)
    deploy_rounds = deployment.run_until_converged(converge_rounds).slowest
    plane = _prepare_zone_plane(deployment, collector=collector)
    start = deployment.engine.round
    deployment.engine.add_control(
        LinkDegradation(
            plane,
            at_round=start,
            quality=LinkQuality(loss=loss, latency=latency),
            zone_pairs=[(DEFAULT_ZONES[0], DEFAULT_ZONES[1])],
            restore_round=start + window,
        )
    )
    deployment.run(window + recovery_rounds)
    return _result(
        "flaky-links", deployment, n_nodes, seed, deploy_rounds, collector=collector
    )


def run_pause_resume(
    n_nodes: int = 128,
    seed: int = 1,
    fraction: float = 0.25,
    window: int = 20,
    recovery_rounds: int = 60,
    converge_rounds: int = 120,
    collector: Optional[Collector] = None,
) -> ScenarioResult:
    """Freeze a random quarter of the population; thaw it with stale views."""
    deployment = _deploy(n_nodes, seed, collector=collector)
    deploy_rounds = deployment.run_until_converged(converge_rounds).slowest
    plane = deployment.install_faults()
    _arm_recovery(deployment, plane, collector)
    start = deployment.engine.round
    deployment.engine.add_control(
        PauseResume(
            plane,
            rng=deployment.streams.fork("faults").stream("pause"),
            at_round=start,
            resume_round=start + window,
            fraction=fraction,
        )
    )
    deployment.run(window + recovery_rounds)
    return _result(
        "pause-resume", deployment, n_nodes, seed, deploy_rounds, collector=collector
    )


#: Scenario registry: name -> runner(n_nodes, seed, **defaults).
SCENARIOS: Dict[str, Callable[..., ScenarioResult]] = {
    "partition": run_partition,
    "zone-outage": run_zone_outage,
    "zone-kill": lambda **kwargs: run_zone_outage(mode="kill", **kwargs),
    "catastrophe": run_catastrophe,
    "flaky-links": run_flaky_links,
    "pause-resume": run_pause_resume,
}


def run_fault_matrix(
    n_nodes: int = 128,
    seed: int = 1,
    collector: Optional[Collector] = None,
) -> List[ScenarioResult]:
    """Run every scenario of the suite at the given scale.

    A shared ``collector`` (if any) sees every scenario's telemetry in
    sequence; the ``scenario``/``scenario_result`` markers delimit runs.
    """
    return [
        runner(n_nodes=n_nodes, seed=seed, collector=collector)
        for runner in SCENARIOS.values()
    ]


def format_scenario(result: ScenarioResult) -> str:
    """Human-readable report for one scenario run."""
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
    if result.health is not None:
        alerts = result.health["alerts"]
        fired = ", ".join(
            f"{alert['rule']}@r{alert['round_fired']}"
            + (
                ""
                if alert["round_cleared"] is None
                else f" (cleared r{alert['round_cleared']})"
            )
            for alert in alerts
        )
        out.append(
            f"health: {result.health['verdict']} "
            f"({result.health['alerts_active']} active / "
            f"{result.health['alerts_total']} fired"
            + (f": {fired}" if fired else "")
            + ")"
        )
    out.append(f"healed: {'yes' if result.healed else 'NO'}")
    return "\n".join(out)
