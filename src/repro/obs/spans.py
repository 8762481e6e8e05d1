"""Wall-clock span timing — the observability pipeline's only clock.

This module is the **single sanctioned wall-clock site** of the obs
subsystem: the DET003 determinism rule forbids wall-clock reads everywhere
else under ``obs/`` (as it does for ``sim/``, ``core/``, ``gossip/``,
``faults/``, ``perf/`` and ``scale/``). Simulation code never reads the
clock — the engine calls ``span_begin``/``span_end`` on its instrument and
the reads happen here, so timing can never leak into simulated logic or
seed-derived results.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List


def wall_clock() -> float:
    """The sanctioned monotonic clock read (seconds)."""
    return time.perf_counter()


class SpanTimer:
    """Named wall-clock spans with per-name totals.

    Spans do not nest per name: beginning an already-open span restarts it
    (the previous opening is discarded — a crashed round must not poison
    the totals). ``clock`` is injectable for deterministic tests.
    """

    def __init__(self, clock: Callable[[], float] = wall_clock):
        self._clock = clock
        self._open: Dict[str, float] = {}
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def begin(self, name: str) -> None:
        self._open[name] = self._clock()

    def end(self, name: str) -> None:
        started = self._open.pop(name, None)
        if started is None:
            return  # unmatched end: ignore rather than corrupt totals
        elapsed = self._clock() - started
        self.totals[name] = self.totals.get(name, 0.0) + elapsed
        self.counts[name] = self.counts.get(name, 0) + 1

    def mean(self, name: str) -> float:
        """Mean duration of the closed ``name`` spans (0.0 if none)."""
        count = self.counts.get(name, 0)
        return self.totals.get(name, 0.0) / count if count else 0.0

    def names(self) -> List[str]:
        return sorted(self.totals)
