"""The benchmark's own tracing: spans and counts taken outside the program.

The program already calls ``span_begin``/``span_end``/``count_key`` on
whatever ``Instrument`` is set as the engine's ``obs``; the benchmark
supplies the sink, so no span or counter lives in the program for the
benchmark's sake. :class:`TraceInstrument` keeps every span in memory
(name, start, end, the span that enclosed it) and every counter; the
aggregation helpers turn them into per-layer busy and self times.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.instrument import Instrument
from repro.sim.transport import TransportDecorator

#: (id, parent id or -1, name, start, end) — seconds on ``perf_counter``.
Span = Tuple[int, int, str, float, float]


class TraceInstrument(Instrument):
    """Records spans and counters; optionally tees to the program's sink.

    ``profile_layers`` asks the round engine for one ``layer:<name>`` span
    per (node, layer) step. With ``tee`` set (``traced_ror``) every call is
    also forwarded to the program's own collector, whose flow tracer this
    instrument exposes so the gossip layers keep minting provenance tags.
    """

    profile_layers = True

    def __init__(self, tee: Optional[Instrument] = None):
        self.tee = tee
        self.flow = tee.flow if tee is not None else None
        self.counters: Dict[Tuple[str, str], int] = defaultdict(int)
        self.spans: List[Span] = []
        self._open: List[Tuple[int, str, float]] = []
        self._next_id = 0

    def count(self, name: str, value: int = 1, layer: str = "") -> None:
        self.counters[(name, layer)] += value
        if self.tee is not None:
            self.tee.count(name, value, layer)

    def count_key(self, key: tuple, value: int = 1) -> None:
        self.counters[key] += value
        if self.tee is not None:
            self.tee.count_key(key, value)

    def emit(self, kind: str, **details: Any):
        if self.tee is not None:
            return self.tee.emit(kind, **details)
        return None

    def gauge(self, name: str, value: float, layer: str = "") -> None:
        if self.tee is not None:
            self.tee.gauge(name, value, layer)

    def histogram(self, name: str, value: float, layer: str = "") -> None:
        if self.tee is not None:
            self.tee.histogram(name, value, layer)

    def span_begin(self, name: str) -> None:
        if self.tee is not None:
            self.tee.span_begin(name)
        self._open.append((self._next_id, name, perf_counter()))
        self._next_id += 1

    def span_end(self, name: str) -> None:
        end = perf_counter()
        if self._open and self._open[-1][1] == name:
            span_id, _, start = self._open.pop()
            parent = self._open[-1][0] if self._open else -1
            self.spans.append((span_id, parent, name, start, end))
        if self.tee is not None:
            self.tee.span_end(name)

    def counter(self, name: str, layer: str) -> int:
        return self.counters.get((name, layer), 0)


def span_totals(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-name (total, self) seconds; self = span minus its child spans."""
    covered: Dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        covered[parent] += end - start
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end in spans:
        total[name] += end - start
        own[name] += end - start - covered.get(span_id, 0.0)
    return total, own


def span_durations(spans: List[Span], name: str) -> List[float]:
    return [end - start for _, _, span_name, start, end in spans if span_name == name]


class TimedTransport(TransportDecorator):
    """Times ``exchange`` at one depth of a transport stack.

    ``wire_grid`` puts one outside and one inside ``LoopbackTransport``;
    the difference of their totals is the time spent in the codec.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self.exchange_s = 0.0

    def exchange(self, ctx, dst, request):
        start = perf_counter()
        try:
            return self.inner.exchange(ctx, dst, request)
        finally:
            self.exchange_s += perf_counter() - start
