"""Self-healing verification: measuring recovery, not just survival.

The paper claims the layered runtime "self-stabilizes under churn". The
:class:`RecoveryObserver` turns that claim into numbers: it reads the
per-round layer verdicts the deployment's
:class:`~repro.core.convergence.ConvergenceTracker` records (it judges no
layer itself) against the fault transport's event log, and reports
**time-to-repair** — for each injected fault, how many rounds each layer
needed to satisfy its predicate again — plus the residual dead-descriptor
fraction (how completely stale knowledge was flushed) and the
partition-merge time (rounds from heal until UO1 and the core overlay span
the former cut again).

The hygiene measures the observer gauges live here too:
:func:`dead_descriptor_fraction` (how much of the population's knowledge
still points at dead nodes) and :func:`dead_view_ids` (which nodes hold
it — the targeting map of the tombstone-purge remediation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.convergence import ConvergenceTracker
from repro.core.layers import LAYER_CORE, LAYER_UO1
from repro.faults.transports import FaultEvent, FaultTransport
from repro.obs.export import render_table
from repro.obs.instrument import Instrument
from repro.sim.network import Network

#: Layers whose views carry the overlay's membership knowledge.
DEFAULT_VIEW_LAYERS: Tuple[str, ...] = ("peer_sampling", "uo1")


def _view_entries(network: Network, layers: Sequence[str]):
    """``(node_id, peer_id)`` of every view entry held by a live node."""
    for node in network.alive_nodes():
        for layer in layers:
            if node.has_protocol(layer):
                for peer_id in node.protocol(layer).neighbors():
                    yield node.node_id, peer_id


def dead_view_ids(
    network: Network, layers: Sequence[str] = DEFAULT_VIEW_LAYERS
) -> Dict[int, List[int]]:
    """Per live node, the sorted dead ids its views still reference.

    The targeting map of the tombstone-purge remediation: for every live
    node holding at least one descriptor of a dead (or unknown — a poisoned
    forgery) node, the distinct offending ids across ``layers``. Nodes with
    clean views are omitted, so an empty dict means perfect hygiene.
    """
    stale: Dict[int, set] = {}
    for node_id, peer_id in _view_entries(network, layers):
        if not network.is_alive(peer_id):
            stale.setdefault(node_id, set()).add(peer_id)
    return {node_id: sorted(ids) for node_id, ids in stale.items()}


def dead_descriptor_fraction(
    network: Network, layers: Sequence[str] = DEFAULT_VIEW_LAYERS
) -> float:
    """Fraction of view entries (over live nodes) that point at dead nodes.

    0.0 means every descriptor held anywhere references a live node — the
    residual after a failure wave measures how completely the healer,
    descriptor TTLs and tombstones have flushed the casualties.
    """
    total = dead = 0
    for _, peer_id in _view_entries(network, layers):
        total += 1
        dead += not network.is_alive(peer_id)
    return dead / total if total else 0.0


@dataclass
class EventRecovery:
    """Repair measurements for one fault event.

    ``repair_rounds[layer]`` is the number of rounds from the event to the
    first subsequent observation at which the layer's predicate held
    (``None`` if it never did within the observed window).
    """

    event: FaultEvent
    repair_rounds: Dict[str, Optional[int]] = field(default_factory=dict)

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


def recovery_report(
    events: Sequence[FaultEvent],
    rounds: Sequence[int],
    series: Dict[str, Sequence[bool]],
    residual_dead_fraction: float = 0.0,
) -> RecoveryReport:
    """Time each fault event's repair on a verdict series.

    ``rounds`` are the observed round indices and ``series[layer]`` the
    layer's verdict at each; a layer's repair after an event is the number
    of rounds from the event to its first holding observation.
    """

    def repair_after(layer: str, event_round: int) -> Optional[int]:
        for observed_round, held in zip(rounds, series[layer]):
            if observed_round >= event_round and held:
                return observed_round - event_round
        return None

    return RecoveryReport(
        recoveries=[
            EventRecovery(
                event=event,
                repair_rounds={layer: repair_after(layer, event.round) for layer in series},
            )
            for event in events
        ],
        layers=list(series),
        final_converged={layer: bool(held) and held[-1] for layer, held in series.items()},
        residual_dead_fraction=residual_dead_fraction,
    )


class RecoveryObserver(Instrument):
    """Engine observer reporting a fault run's time-to-repair.

    Legality is judged once a round by the deployment's
    :class:`~repro.core.convergence.ConvergenceTracker`; the report reads
    its verdict series from the round this observer was armed, against the
    fault transport's event log. Per round the observer itself measures
    only the dead-descriptor fraction, mirrored as a
    ``dead_descriptor_fraction`` gauge on an optional ``instrument`` (a
    no-op on anything but a collector). It never requests an early stop (a
    fault run must outlive its injected faults).
    """

    def __init__(
        self,
        faults: FaultTransport,
        tracker: ConvergenceTracker,
        instrument: Optional[Instrument] = None,
    ):
        self.faults = faults
        self.tracker = tracker
        self.instrument = instrument
        self.armed_at = len(tracker.rounds)
        self.residual_dead_fraction = 0.0

    def observe(self, network: Network, round_index: int) -> bool:
        self.residual_dead_fraction = dead_descriptor_fraction(network)
        if self.instrument is not None:
            self.instrument.gauge("dead_descriptor_fraction", self.residual_dead_fraction)
        return False

    def report(self) -> RecoveryReport:
        since = self.armed_at
        return recovery_report(
            self.faults.events,
            self.tracker.rounds[since:],
            {layer: held[since:] for layer, held in self.tracker.series.items()},
            self.residual_dead_fraction,
        )
