"""The k-regular ring shape (each node adjacent to its k nearest per side)."""

from __future__ import annotations

from typing import Any, ClassVar, Dict, FrozenSet

from repro.errors import TopologyError
from repro.shapes.base import Metric, Shape
from repro.shapes.ring import circular_metric


class KRegularRing(Shape):
    """A ring where rank *r* is adjacent to ranks *r±1 .. r±k* (mod size).

    The classic fault-tolerant ring of the gossip literature: with ``k``
    neighbours per side, up to ``2k - 1`` consecutive failures leave the
    ring connected, and greedy routing makes ``k``-sized strides. ``k = 1``
    degenerates to the plain :class:`~repro.shapes.ring.Ring`.
    """

    name = "kring"
    min_size: ClassVar[int] = 3  # same cycle minimum as the plain ring

    def __init__(self, k: int = 2):
        if k < 1:
            raise TopologyError(f"kring: k must be >= 1, got {k}")
        self.k = k

    def params(self) -> Dict[str, Any]:
        return {"k": self.k}

    def metric(self, size: int) -> Metric:
        self.validate_size(size)
        return circular_metric(size)

    def target_neighbors(self, rank: int, size: int) -> FrozenSet[int]:
        self._check_rank(rank, size)
        neighbors = set()
        for offset in range(1, self.k + 1):
            neighbors.add((rank + offset) % size)
            neighbors.add((rank - offset) % size)
        neighbors.discard(rank)  # size <= k wraps back onto itself
        return frozenset(neighbors)
