"""The ring shape — the canonical self-organizing overlay target."""

from __future__ import annotations

from typing import ClassVar, FrozenSet

from repro.shapes.base import Metric, Shape


def circular_metric(size: int) -> Metric:
    """Circular distance on ranks mod ``size``: ``min(|a - b|, size - |a - b|)``.

    Written without ``abs`` or ``min`` calls (one Python-level frame per
    distance, and every gossip ranking loop runs it); equal to the
    textbook form for any ints, negative or past ``size``
    (tests/shapes/test_individual_shapes.py).
    """

    def circular(a: int, b: int) -> float:
        d = (a - b) % size
        return float(d if d + d <= size else size - d)

    return circular


class Ring(Shape):
    """A bidirectional ring: rank *r* is adjacent to *r±1 (mod size)*.

    The metric is circular distance on ranks, the classic T-Man/Vicinity
    ring example; the greedy overlay converges to each node holding its two
    ring successors/predecessors at the top of its view.
    """

    name = "ring"
    min_size: ClassVar[int] = 3  # below 3 the cycle degenerates to an edge or a point

    def metric(self, size: int) -> Metric:
        self.validate_size(size)
        return circular_metric(size)

    def target_neighbors(self, rank: int, size: int) -> FrozenSet[int]:
        self._check_rank(rank, size)
        if size == 1:
            return frozenset()
        if size == 2:
            return frozenset({1 - rank})
        return frozenset({(rank - 1) % size, (rank + 1) % size})
