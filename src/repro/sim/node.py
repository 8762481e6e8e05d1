"""Simulated nodes and their protocol stacks.

In the paper's model (inherited from PeerSim), a node hosts a *stack* of
protocol instances — here: peer sampling, the two utility overlays UO1/UO2,
port selection, port connection, and the component's core protocol. Protocols
on the same node can read each other through :meth:`Node.protocol`, which is
how Vicinity taps the peer-sampling layer for its "pinch of randomness".
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.protocol import Protocol


class Node:
    """A simulated message-passing node.

    Attributes
    ----------
    node_id:
        Unique integer identity; never reused within a run.
    alive:
        Crash-stop liveness flag. A dead node keeps its state (so a revival
        models a temporary partition) but takes no steps and answers no
        gossip.
    attributes:
        Free-form application metadata (e.g. the node's role assignment).
    """

    __slots__ = ("node_id", "alive", "attributes", "_stack", "_order", "__weakref__")

    def __init__(self, node_id: int):
        self.node_id = int(node_id)
        self.alive = True
        self.attributes: Dict[str, Any] = {}
        self._stack: Dict[str, "Protocol"] = {}
        self._order: List[str] = []

    # -- protocol stack ----------------------------------------------------

    def attach(self, name: str, protocol: "Protocol") -> "Protocol":
        """Attach ``protocol`` under layer ``name``; stack order is attach order.

        The protocol learns its hosting node (:attr:`Protocol.node`), so it
        reads its own sibling layers without asking the network.
        """
        if name in self._stack:
            raise SimulationError(f"node {self.node_id} already has a protocol {name!r}")
        protocol.node = weakref.proxy(self)
        self._stack[name] = protocol
        self._order.append(name)
        return protocol

    def replace(self, name: str, protocol: "Protocol") -> "Protocol":
        """Swap the protocol attached under ``name`` (stack position kept).

        Used by reconfiguration when a node's component changes shape and its
        core protocol must be rebuilt rather than just re-profiled. The new
        protocol learns its hosting node, as on :meth:`attach`.
        """
        if name not in self._stack:
            raise SimulationError(f"node {self.node_id} has no protocol {name!r}")
        protocol.node = weakref.proxy(self)
        self._stack[name] = protocol
        return protocol

    def protocol(self, name: str) -> "Protocol":
        """Return the protocol attached under ``name``."""
        try:
            return self._stack[name]
        except KeyError:
            raise SimulationError(
                f"node {self.node_id} has no protocol {name!r} "
                f"(stack: {self._order})"
            ) from None

    def has_protocol(self, name: str) -> bool:
        return name in self._stack

    def find(self, name: str) -> Optional["Protocol"]:
        """The protocol attached under ``name``, or ``None``."""
        return self._stack.get(name)

    def stack(self) -> Iterator[Tuple[str, "Protocol"]]:
        """Iterate ``(layer_name, protocol)`` pairs in stack order."""
        for name in self._order:
            yield name, self._stack[name]

    # -- liveness ----------------------------------------------------------

    def kill(self) -> None:
        """Crash-stop the node (state is retained, steps cease)."""
        self.alive = False

    def revive(self) -> None:
        """Bring a crashed node back with its pre-crash state."""
        self.alive = True

    def __repr__(self) -> str:
        status = "up" if self.alive else "down"
        return f"Node({self.node_id}, {status}, layers={self._order})"
