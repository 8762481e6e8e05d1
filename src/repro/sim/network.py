"""The simulated node population."""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import SimulationError
from repro.sim.node import Node


class Rendezvous:
    """The bootstrap / seed service: every id that ever registered.

    The one out-of-band channel a node has when gossip cannot help (an
    empty view, a healed cut, a segregated overlay). Nodes register when
    they join and nobody deregisters, so a sample may name dead or removed
    nodes; the asker's gossip hygiene flushes those like any dead entry.
    """

    def __init__(self) -> None:
        self._ids: List[int] = []

    def register(self, node_id: int) -> None:
        self._ids.append(node_id)

    def sample(
        self, rng: random.Random, count: int, exclude: Optional[int] = None
    ) -> List[int]:
        """Up to ``count`` distinct registered ids other than ``exclude``."""
        ids = [node_id for node_id in self._ids if node_id != exclude]
        return rng.sample(ids, min(count, len(ids)))


class Network:
    """The population of nodes in one simulation.

    Supports the churn operations the paper relies on ("nodes failing,
    leaving or joining the system"): node creation, crash-stop kills and
    revivals. Node ids are allocated monotonically
    and never reused, so a descriptor can always be resolved unambiguously.
    Every created node registers with :attr:`rendezvous`.

    The list of live node ids is cached and invalidated on population or
    liveness changes, so the engine's per-round schedule and the observers
    do not rescan the population.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, Node] = {}
        self._next_id = 0
        self._alive_cache: Optional[List[int]] = None
        self.rendezvous = Rendezvous()

    def _invalidate(self) -> None:
        self._alive_cache = None

    # -- population management ----------------------------------------------

    def create_node(self) -> Node:
        """Create, register and return a fresh node."""
        node = Node(self._next_id)
        self._next_id += 1
        self._nodes[node.node_id] = node
        self.rendezvous.register(node.node_id)
        self._invalidate()
        return node

    def create_nodes(self, count: int) -> List[Node]:
        if count < 0:
            raise SimulationError(f"cannot create {count} nodes")
        return [self.create_node() for _ in range(count)]

    def kill(self, node_id: int) -> None:
        """Crash-stop ``node_id`` (keeps its state; see :meth:`Node.kill`)."""
        self.node(node_id).kill()
        self._invalidate()

    def revive(self, node_id: int) -> None:
        self.node(node_id).revive()
        self._invalidate()

    # -- lookup ---------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SimulationError(f"unknown node id {node_id}") from None

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def is_alive(self, node_id: int) -> bool:
        node = self._nodes.get(node_id)
        return node is not None and node.alive

    # -- the peer seam ----------------------------------------------------------
    # ``ctx.peers``: all a gossip layer may ask about another node —
    # :meth:`is_alive` and the three questions below. On the round and
    # sharded engines the network answers them from every node's true state.

    def runs(self, node_id: int, layer: str) -> bool:
        """Whether ``node_id`` runs ``layer``."""
        node = self._nodes.get(node_id)
        return node is not None and node.has_protocol(layer)

    def profile(self, node_id: int, layer: str) -> Any:
        """The profile ``node_id`` holds on ``layer``; ``None`` if it does not
        run it."""
        node = self._nodes.get(node_id)
        protocol = None if node is None else node.find(layer)
        return None if protocol is None else protocol.profile

    def advert(self, node_id: int, layer: str) -> Any:
        """The self-descriptor ``node_id`` advertises on ``layer`` (the one it
        would ship in its next exchange); ``None`` if it does not run it."""
        node = self._nodes.get(node_id)
        protocol = None if node is None else node.find(layer)
        return None if protocol is None else protocol.self_descriptor()

    def nodes(self) -> Iterator[Node]:
        """All registered nodes, dead or alive, in id order."""
        for node_id in sorted(self._nodes):
            yield self._nodes[node_id]

    def alive_nodes(self) -> Iterator[Node]:
        for node_id in self.alive_ids():
            yield self._nodes[node_id]

    @property
    def next_id(self) -> int:
        """The id the next created node gets."""
        return self._next_id

    def node_ids(self) -> List[int]:
        return sorted(self._nodes)

    def alive_ids(self) -> List[int]:
        """Sorted ids of live nodes (cached between population changes)."""
        if self._alive_cache is None:
            self._alive_cache = sorted(
                node_id for node_id, node in self._nodes.items() if node.alive
            )
        return self._alive_cache

    # -- sizes ------------------------------------------------------------------

    def size(self) -> int:
        return len(self._nodes)

    def alive_count(self) -> int:
        return len(self.alive_ids())

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return f"Network(size={self.size()}, alive={self.alive_count()})"
