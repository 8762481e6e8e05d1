"""Structured lifecycle events.

:class:`TraceEvent` is the record every event sink keeps — crashes, joins,
revivals, convergence transitions — serializable to JSON and printable as a
timeline line. The population tracer below turns engine observations into
such events; it is written against the
:class:`~repro.obs.instrument.Instrument` protocol and feeds whatever sink
it is given (in practice a :class:`~repro.obs.collector.Collector`,
which also receives its counter calls). Convergence events come from the
:class:`~repro.core.convergence.ConvergenceTracker` itself.
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
