"""Self-healing verification: measuring recovery, not just survival.

The paper claims the layered runtime "self-stabilizes under churn". The
:class:`RecoveryObserver` turns that claim into numbers:
it re-evaluates every layer's structural convergence predicate each round,
reads the fault plane's event log, and reports **time-to-repair** — for
each injected fault, how many rounds each layer needed to satisfy its
predicate again — plus the residual dead-descriptor fraction (how
completely stale knowledge was flushed) and the partition-merge time
(rounds from heal until UO1 and the core overlay span the former cut
again).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.core.convergence import ConvergenceTracker, layer_converged
from repro.core.layers import LAYER_CORE, LAYER_UO1
from repro.core.roles import RoleMap
from repro.faults.plane import FaultEvent, FaultPlane
from repro.metrics.recovery import dead_descriptor_fraction
from repro.metrics.report import render_table
from repro.obs.instrument import Instrument
from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.assembly import Assembly
    from repro.core.runtime import Deployment

#: Event kinds after which the system is expected to *re*-converge (the
#: repair clock starts here). Injection events (partition, pause, degrade)
#: are also reported, but their repair times describe degradation windows.
HEALING_KINDS = ("heal", "resume", "restore", "zone_restore")


@dataclass
class EventRecovery:
    """Repair measurements for one fault event.

    ``repair_rounds[layer]`` is the number of rounds from the event to the
    first subsequent observation at which the layer's predicate held
    (``None`` if it never did within the observed window); ``dipped``
    names the layers seen unconverged at least once from the event onward.
    """

    event: FaultEvent
    repair_rounds: Dict[str, Optional[int]] = field(default_factory=dict)
    dipped: List[str] = field(default_factory=list)

    @property
    def repaired(self) -> bool:
        return all(value is not None for value in self.repair_rounds.values())

    @property
    def slowest_repair(self) -> Optional[int]:
        if not self.repaired or not self.repair_rounds:
            return None
        return max(value for value in self.repair_rounds.values())


@dataclass
class RecoveryReport:
    """The fault run's verdict: per-event, per-layer time-to-repair."""

    recoveries: List[EventRecovery]
    layers: List[str]
    final_converged: Dict[str, bool]
    residual_dead_fraction: float
    observed_rounds: int

    def recovery_for(self, kind: str) -> Optional[EventRecovery]:
        """The first recovery record whose event matches ``kind``."""
        for recovery in self.recoveries:
            if recovery.event.kind == kind:
                return recovery
        return None

    def time_to_repair(self, kind: str, layer: str) -> Optional[int]:
        recovery = self.recovery_for(kind)
        if recovery is None:
            return None
        return recovery.repair_rounds.get(layer)

    @property
    def partition_merge_rounds(self) -> Optional[int]:
        """Rounds from partition heal until UO1 *and* core span the cut."""
        recovery = self.recovery_for("heal")
        if recovery is None:
            return None
        uo1 = recovery.repair_rounds.get(LAYER_UO1)
        core = recovery.repair_rounds.get(LAYER_CORE)
        if uo1 is None or core is None:
            return None
        return max(uo1, core)

    @property
    def healed(self) -> bool:
        """All layers converged at the end of the observed window."""
        return bool(self.final_converged) and all(self.final_converged.values())

    def render(self) -> str:
        """The recovery report as aligned ASCII tables."""
        headers = ["round", "event"] + [
            f"{layer} ttr" for layer in self.layers
        ]
        rows = []
        for recovery in self.recoveries:
            row = [recovery.event.round, str(recovery.event)]
            for layer in self.layers:
                value = recovery.repair_rounds.get(layer)
                row.append("-" if value is None else value)
            rows.append(row)
        out = [render_table(headers, rows, title="time-to-repair (rounds after event)")]
        out.append("")
        out.append(
            "final state: "
            + ", ".join(
                f"{layer}={'ok' if ok else 'NOT CONVERGED'}"
                for layer, ok in sorted(self.final_converged.items())
            )
        )
        out.append(
            f"residual dead-descriptor fraction: {self.residual_dead_fraction:.4f}"
        )
        merge = self.partition_merge_rounds
        if merge is not None:
            out.append(f"partition merge (uo1+core re-span the cut): {merge} rounds")
        return "\n".join(out)


class RecoveryObserver(Instrument):
    """Engine observer evaluating every layer's predicate every round.

    Unlike :class:`~repro.core.convergence.ConvergenceTracker`, which
    records only the *first* convergence round, this observer keeps the
    full boolean series so repair times can be computed relative to any
    fault event, and it never requests an early stop (a fault run must
    outlive its injected faults).

    An optional ``instrument`` mirrors each observation as telemetry: one
    ``layers_converged`` gauge and a ``dead_descriptor_fraction`` gauge per
    round (no-ops on anything but a collector).
    """

    ALL_LAYERS = ConvergenceTracker.ALL_LAYERS

    def __init__(
        self,
        plane: FaultPlane,
        assembly_provider: Callable[[], "Assembly"],
        role_map_provider: Callable[[], RoleMap],
        uo1_view_size: int,
        uo2_scope: str = "all",
        layers: Optional[List[str]] = None,
        instrument: Optional[Instrument] = None,
    ):
        self.plane = plane
        self._assembly = assembly_provider
        self._role_map = role_map_provider
        self.uo1_view_size = uo1_view_size
        self.uo2_scope = uo2_scope
        self.layers = list(layers) if layers is not None else list(self.ALL_LAYERS)
        self.instrument = instrument
        self.rounds: List[int] = []
        self.series: Dict[str, List[bool]] = {layer: [] for layer in self.layers}
        self.dead_fraction_series: List[float] = []

    @classmethod
    def for_deployment(
        cls,
        deployment: "Deployment",
        plane: FaultPlane,
        layers: Optional[List[str]] = None,
        instrument: Optional[Instrument] = None,
    ) -> "RecoveryObserver":
        """Build an observer wired to a deployment's oracle state."""
        return cls(
            plane,
            assembly_provider=lambda: deployment.assembly,
            role_map_provider=lambda: deployment.role_map,
            uo1_view_size=deployment.config.uo1.view_size,
            uo2_scope=deployment.config.uo2_scope,
            layers=layers,
            instrument=instrument,
        )

    # -- observation ----------------------------------------------------------

    def _predicate(self, layer: str, network: Network) -> bool:
        return layer_converged(
            layer,
            network,
            self._role_map(),
            self._assembly(),
            self.uo1_view_size,
            self.uo2_scope,
        )

    def observe(self, network: Network, round_index: int) -> bool:
        self.rounds.append(round_index)
        converged = 0
        for layer in self.layers:
            held = self._predicate(layer, network)
            self.series[layer].append(held)
            converged += held
        dead_fraction = dead_descriptor_fraction(network)
        self.dead_fraction_series.append(dead_fraction)
        if self.instrument is not None:
            self.instrument.gauge("layers_converged", converged)
            self.instrument.gauge("dead_descriptor_fraction", dead_fraction)
        return False

    # -- reporting ------------------------------------------------------------

    def _repair_after(self, layer: str, event_round: int) -> Optional[int]:
        """Rounds from ``event_round`` to the first converged observation."""
        for index, observed_round in enumerate(self.rounds):
            if observed_round < event_round:
                continue
            if self.series[layer][index]:
                return observed_round - event_round
        return None

    def _dipped_after(self, layer: str, event_round: int) -> bool:
        for index, observed_round in enumerate(self.rounds):
            if observed_round < event_round:
                continue
            if not self.series[layer][index]:
                return True
        return False

    def report(self) -> RecoveryReport:
        recoveries = []
        for event in self.plane.events:
            recovery = EventRecovery(event=event)
            for layer in self.layers:
                recovery.repair_rounds[layer] = self._repair_after(
                    layer, event.round
                )
                if self._dipped_after(layer, event.round):
                    recovery.dipped.append(layer)
            recoveries.append(recovery)
        final = {
            layer: bool(self.series[layer]) and self.series[layer][-1]
            for layer in self.layers
        }
        residual = (
            self.dead_fraction_series[-1] if self.dead_fraction_series else 0.0
        )
        return RecoveryReport(
            recoveries=recoveries,
            layers=list(self.layers),
            final_converged=final,
            residual_dead_fraction=residual,
            observed_rounds=len(self.rounds),
        )
