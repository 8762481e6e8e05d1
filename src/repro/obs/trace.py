"""Structured lifecycle events.

:class:`TraceEvent` is the record every event sink keeps — crashes, joins,
revivals, convergence transitions — serializable to JSON and printable as a
timeline line. The population and convergence tracers below turn engine
observations into such events; they are written against the
:class:`~repro.obs.instrument.Instrument` protocol and feed whatever sink
they are given (in practice a :class:`~repro.obs.collector.Collector`,
which also receives their counter and gauge calls).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.obs import events as _events
from repro.obs.instrument import Instrument
from repro.sim.network import Network


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    round: int
    kind: str
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize with details namespaced under ``"details"``, so a
        ``round`` or ``kind`` detail key cannot shadow the event's own fields."""
        return {"round": self.round, "kind": self.kind, "details": dict(self.details)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        """Parse the :meth:`to_dict` layout; a record without a ``details``
        map raises ``KeyError`` / ``TypeError``."""
        details = data["details"]
        if not isinstance(details, dict):
            raise TypeError(f"details must be a map, got {type(details).__name__}")
        return cls(round=int(data["round"]), kind=str(data["kind"]), details=dict(details))

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return f"[{self.round:>4}] {self.kind}{' ' + details if details else ''}"


class PopulationTracer(Instrument):
    """Engine observer emitting crash/join/revive events by diffing the
    population between rounds (catches changes made by any control).

    ``instrument`` is any event sink; a
    :class:`~repro.obs.collector.Collector` keeps the events and counts them.
    """

    def __init__(self, instrument: Instrument):
        self.instrument = instrument
        self._known_alive: Optional[set] = None

    def observe(self, network: Network, round_index: int) -> bool:
        alive = set(network.alive_ids())
        if self._known_alive is not None:
            for node_id in sorted(self._known_alive - alive):
                if network.has_node(node_id):
                    self.instrument.emit(_events.EVENT_NODE_CRASH, node=node_id)
                    self.instrument.count("node_crashes")
                else:
                    self.instrument.emit(_events.EVENT_NODE_LEAVE, node=node_id)
                    self.instrument.count("node_leaves")
            for node_id in sorted(alive - self._known_alive):
                self.instrument.emit(_events.EVENT_NODE_UP, node=node_id)
                self.instrument.count("node_ups")
        self._known_alive = alive
        return False


class ConvergenceTracer(Instrument):
    """Engine observer emitting one event per layer convergence transition.

    Wraps a :class:`~repro.core.convergence.ConvergenceTracker`: whenever a
    layer's first-convergence round becomes known, a ``layer_converged``
    event fires; the latest core score and the converged-layer count are
    mirrored as gauges.
    """

    def __init__(self, instrument: Instrument, tracker) -> None:
        self.instrument = instrument
        self.tracker = tracker
        self._reported: set = set()

    def observe(self, network: Network, round_index: int) -> bool:
        converged = 0
        for layer, first in self.tracker.first_converged.items():
            if first is None:
                continue
            converged += 1
            if layer not in self._reported:
                self._reported.add(layer)
                self.instrument.emit(
                    _events.EVENT_LAYER_CONVERGED, layer=layer, at=first
                )
        self.instrument.gauge("layers_converged", converged)
        if self.tracker.core_scores:
            self.instrument.gauge(
                "core_score", self.tracker.core_scores[-1], layer="core"
            )
        return False

    def reset(self) -> None:
        self._reported.clear()
