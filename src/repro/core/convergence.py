"""Structural convergence detectors for every runtime layer.

The paper's figures report "# of rounds to converge" per sub-procedure
(Elementary/core, UO1, UO2, Port Selection, Port Connection). Convergence is
a *structural* predicate evaluated by an omniscient observer — exactly what a
PeerSim observer does — against the oracle role map:

- **core** — every component's realized core-overlay adjacency covers its
  shape's target edges;
- **uo1** — every node's UO1 view holds as many live same-component peers as
  it can (``min(view_size, |component| - 1)``);
- **uo2** — every node has at least one live contact in every other
  component;
- **port_selection** — all members of each component agree on the oracle
  manager for each of its ports;
- **port_connection** — for every link, the two oracle port managers hold
  fresh bindings for each other's ports.

:class:`ConvergenceTracker` is the one place legality is judged: an engine
observer that evaluates every predicate once a round into a per-round
verdict series. From it come the first round at which each layer holds —
the quantity plotted in Figures 2 and 3 — the stop of
:meth:`~repro.core.runtime.Deployment.run_until_converged`, fault runs'
time-to-repair, and the convergence telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.core.layers import (
    LAYER_CORE,
    LAYER_PORT_CONNECTION,
    LAYER_PORT_SELECTION,
    LAYER_UO1,
    LAYER_UO2,
)
from repro.core.link import PortRef
from repro.core.roles import RoleMap
from repro.obs.events import EVENT_LAYER_CONVERGED
from repro.obs.instrument import Instrument
from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.assembly import Assembly


class Snapshot(NamedTuple):
    """What the predicates read of one round's state, gathered once.

    ``alive`` is the set of live node ids, ``members`` each component's
    live ``(node_id, rank)`` members in role-map order, and ``oracle`` the
    selector-oracle manager of every declared port over those members.
    The tracker builds one per observed round and hands it to every
    predicate as ``state``; a predicate called without one builds its own.
    """

    alive: Set[int]
    members: Dict[str, List[Tuple[int, int]]]
    oracle: Dict[PortRef, Optional[int]]


def snapshot(network: Network, role_map: RoleMap, assembly: "Assembly") -> Snapshot:
    """The :class:`Snapshot` of the current state."""
    alive = set(network.alive_ids())
    members = {
        name: [member for member in role_map.members(name) if member[0] in alive]
        for name in assembly.components
    }
    return Snapshot(alive, members, _oracle_managers(assembly, members))


def _oracle_managers(
    assembly: "Assembly", members: Dict[str, List[Tuple[int, int]]]
) -> Dict[PortRef, Optional[int]]:
    """The selector-oracle manager of every declared port, over live members."""
    return {
        PortRef(name, port.name): port.selector.choose(members[name])
        for name, spec in assembly.components.items()
        for port in spec.ports
    }


def core_converged(
    network: Network, role_map: RoleMap, assembly: "Assembly"
) -> bool:
    """Every component's core overlay realizes its shape's target edges."""
    return core_score(network, role_map, assembly) >= 1.0


def core_score(
    network: Network,
    role_map: RoleMap,
    assembly: "Assembly",
    state: Optional[Snapshot] = None,
) -> float:
    """Fraction of directed target adjacencies realized across components.

    1.0 means fully converged; under churn this is the self-healing health
    metric (how much of the shape survives / has been rebuilt).
    """
    alive = (state or snapshot(network, role_map, assembly)).alive
    wanted = 0
    realized = 0
    for name, spec in assembly.components.items():
        members = role_map.members(name)
        if not members:
            continue
        size = len(members)
        rank_of = {node_id: rank for node_id, rank in members}
        adjacency: Dict[int, List[int]] = {}
        for node_id, rank in members:
            if node_id not in alive:
                continue
            protocol = network.node(node_id).protocol(LAYER_CORE)
            adjacency[rank] = [
                rank_of[other]
                for other in protocol.neighbors()
                if other in rank_of
            ]
        for node_id, rank in members:
            if node_id not in alive:
                continue
            targets = spec.shape.target_neighbors(rank, size)
            for other in targets:
                other_id = members[other][0] if other < len(members) else None
                # Only count adjacencies with both endpoints alive.
                if other_id is None or other_id not in alive:
                    continue
                wanted += 1
                if other in adjacency.get(rank, ()):
                    realized += 1
        # Unstructured shapes (random graph) have no target edges; fall back
        # to the shape's own converged() predicate through a sentinel.
        if not spec.shape.target_edges(size):
            wanted += 1
            if spec.shape.converged(adjacency, size):
                realized += 1
    if wanted == 0:
        return 1.0
    return realized / wanted


def uo1_converged(
    network: Network,
    role_map: RoleMap,
    assembly: "Assembly",
    view_size: int,
    state: Optional[Snapshot] = None,
) -> bool:
    """Every live node's UO1 view is saturated with live same-component peers."""
    state = state or snapshot(network, role_map, assembly)
    for members in state.members.values():
        member_ids = {node_id for node_id, _ in members}
        needed = min(view_size, len(members) - 1)
        if needed <= 0:
            continue
        for node_id, _ in members:
            protocol = network.node(node_id).protocol(LAYER_UO1)
            known = sum(1 for other in protocol.neighbors() if other in member_ids)
            if known < needed:
                return False
    return True


def uo2_converged(
    network: Network,
    role_map: RoleMap,
    assembly: "Assembly",
    state: Optional[Snapshot] = None,
) -> bool:
    """Every live node has a live contact in every other component."""
    state = state or snapshot(network, role_map, assembly)
    alive = state.alive
    populated = {name for name, members in state.members.items() if members}
    # Order-insensitive all-quantifier: every component must pass, and no
    # state is touched, so hash order cannot leak into a decision.
    for name in populated:  # repro-lint: disable=DET004
        wanted = populated - {name}
        if not wanted:
            continue
        for node_id, _ in state.members[name]:
            buckets = network.node(node_id).protocol(LAYER_UO2).buckets
            for target in wanted:
                # Ids only: which contacts a bucket holds needs no ages.
                bucket = buckets.get(target)
                if bucket is None or alive.isdisjoint(bucket.id_set()):
                    return False
    return True


def port_selection_converged(
    network: Network,
    role_map: RoleMap,
    assembly: "Assembly",
    state: Optional[Snapshot] = None,
) -> bool:
    """All live members agree on the oracle manager of each of their ports."""
    state = state or snapshot(network, role_map, assembly)
    oracle = state.oracle
    for name, spec in assembly.components.items():
        if not spec.ports:
            continue
        for node_id, _ in state.members[name]:
            protocol = network.node(node_id).protocol(LAYER_PORT_SELECTION)
            for port in spec.ports:
                expected = oracle[PortRef(name, port.name)]
                if expected is None:
                    continue  # no live member can hold the port right now
                if protocol.manager_of(port.name) != expected:
                    return False
    return True


def port_connection_converged(
    network: Network,
    role_map: RoleMap,
    assembly: "Assembly",
    state: Optional[Snapshot] = None,
) -> bool:
    """Every link is realized between its two oracle port managers."""
    oracle = (state or snapshot(network, role_map, assembly)).oracle
    for link in assembly.links:
        manager_a = oracle.get(link.a)
        manager_b = oracle.get(link.b)
        if manager_a is None or manager_b is None:
            continue  # a side has no live eligible manager; nothing to check
        protocol_a = network.node(manager_a).protocol(LAYER_PORT_CONNECTION)
        protocol_b = network.node(manager_b).protocol(LAYER_PORT_CONNECTION)
        if protocol_a.binding_for(link.b) != manager_b:
            return False
        if protocol_b.binding_for(link.a) != manager_a:
            return False
    return True


@dataclass
class ConvergenceReport:
    """Outcome of a convergence run: per-layer first-convergence rounds.

    ``rounds[layer]`` is the 1-based round index at which the layer's
    predicate first held, or ``None`` if it never did within the budget.
    """

    rounds: Dict[str, Optional[int]] = field(default_factory=dict)
    executed: int = 0

    @property
    def converged(self) -> bool:
        return bool(self.rounds) and all(
            round_index is not None for round_index in self.rounds.values()
        )

    def round_of(self, layer: str) -> Optional[int]:
        return self.rounds.get(layer)

    @property
    def slowest(self) -> Optional[int]:
        """The last layer's convergence round (the whole topology's)."""
        if not self.converged:
            return None
        return max(round_index for round_index in self.rounds.values())


class ConvergenceTracker(Instrument):
    """Engine observer judging every layer's legality once a round.

    The one legality ledger. Each observed round it gathers one
    :class:`Snapshot` (live ids, live members, oracle port managers) that
    every predicate reads, computes the core score once (the core verdict
    is ``score >= 1.0``), evaluates every other layer's predicate once, and
    appends the round's verdicts to
    :attr:`series` (with the round index in :attr:`rounds` and the score in
    :attr:`core_scores`). :meth:`reset` never clears that series; it only
    moves the point :attr:`first_converged` and :meth:`report` count from.
    Time-to-repair (:class:`~repro.obs.recovery.RecoveryObserver`) and the
    telemetry below are read from this one record.

    With a telemetry sink in :attr:`instrument` (set by
    :func:`~repro.obs.hooks.attach_collector`) it also emits one
    ``layer_converged`` event per layer, and gauges ``core_score`` and
    ``layers_converged`` (how many layers hold *this* round).

    Parameters
    ----------
    assembly_provider, role_map_provider:
        Callables returning the *current* assembly and role map (they change
        on reconfiguration and churn rebalancing).
    uo1_view_size:
        The deployed UO1 view capacity (saturation threshold).
    """

    ALL_LAYERS = (
        LAYER_CORE,
        LAYER_UO1,
        LAYER_UO2,
        LAYER_PORT_SELECTION,
        LAYER_PORT_CONNECTION,
    )

    def __init__(
        self,
        assembly_provider: Callable[[], "Assembly"],
        role_map_provider: Callable[[], RoleMap],
        uo1_view_size: int,
    ):
        self._assembly = assembly_provider
        self._role_map = role_map_provider
        self.uo1_view_size = uo1_view_size
        self.rounds: List[int] = []
        self.series: Dict[str, List[bool]] = {layer: [] for layer in self.ALL_LAYERS}
        self.core_scores: List[float] = []
        #: Layers whose convergence stops the engine; set only while
        #: :meth:`~repro.core.runtime.Deployment.run_until_converged` runs.
        self.waiting_for: Tuple[str, ...] = ()
        self.instrument: Optional[Instrument] = None
        self._reported: set = set()
        self.reset()

    @classmethod
    def layers_of(cls, layers: Optional[Sequence[str]]) -> Tuple[str, ...]:
        """``layers`` checked against :attr:`ALL_LAYERS` (all five if ``None``)."""
        if layers is None:
            return cls.ALL_LAYERS
        for layer in layers:
            if layer not in cls.ALL_LAYERS:
                raise ValueError(f"unknown layer {layer!r}")
        return tuple(layers)

    def reset(self) -> None:
        """Count first convergence afresh from the next observed round
        (called when a rebalance switches assemblies); the series stays."""
        self.first_converged: Dict[str, Optional[int]] = {
            layer: None for layer in self.ALL_LAYERS
        }
        self.observed_rounds = 0

    def observe(self, network: Network, round_index: int) -> bool:
        role_map, assembly = self._role_map(), self._assembly()
        state = snapshot(network, role_map, assembly)
        score = core_score(network, role_map, assembly, state)
        verdicts = (
            score >= 1.0,
            uo1_converged(network, role_map, assembly, self.uo1_view_size, state),
            uo2_converged(network, role_map, assembly, state),
            port_selection_converged(network, role_map, assembly, state),
            port_connection_converged(network, role_map, assembly, state),
        )
        self.rounds.append(round_index)
        self.core_scores.append(score)
        self.observed_rounds += 1
        for layer, held in zip(self.ALL_LAYERS, verdicts):
            self.series[layer].append(held)
            if held and self.first_converged[layer] is None:
                # 1-based and relative to the last reset, so a measurement
                # started mid-run (e.g. after a reconfiguration) reports
                # rounds *since the change*, exactly as the paper plots.
                self.first_converged[layer] = self.observed_rounds
        if self.instrument is not None:
            self._publish(sum(verdicts), score)
        return bool(self.waiting_for) and all(
            self.first_converged[layer] is not None for layer in self.waiting_for
        )

    def _publish(self, holding: int, score: float) -> None:
        for layer, first in self.first_converged.items():
            if first is not None and layer not in self._reported:
                self._reported.add(layer)
                self.instrument.emit(EVENT_LAYER_CONVERGED, layer=layer, at=first)
        self.instrument.gauge("layers_converged", holding)
        self.instrument.gauge("core_score", score, layer="core")

    def report(self, layers: Optional[Sequence[str]] = None) -> ConvergenceReport:
        """First convergence since the last reset of ``layers`` (all five
        if ``None``)."""
        return ConvergenceReport(
            rounds={layer: self.first_converged[layer] for layer in self.layers_of(layers)},
            executed=self.observed_rounds,
        )
