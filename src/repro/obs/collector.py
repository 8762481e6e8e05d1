"""The concrete telemetry sink: counters, gauges, events, and spans.

One :class:`Collector` instance aggregates everything the runtime reports
through the :class:`~repro.obs.instrument.Instrument` protocol. Counter and
gauge writes are dictionary upserts keyed by ``(name, layer)`` — no
per-call allocation beyond the tuple key — and the per-round structural
gauges (degree distributions, UO2 bucket occupancy) are *sampled*: they run
only every ``gauge_every`` rounds because they scan the population, and can
be disabled entirely (``gauge_every=0``) for overhead-sensitive runs such
as the repository benchmark's ``traced_ror`` workload.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.events import is_known
from repro.obs.instrument import Instrument
from repro.obs.spans import SpanTimer, wall_clock
from repro.sim.network import Network

#: counter/gauge key: (metric name, layer label; "" = global).
MetricKey = Tuple[str, str]

#: Bucket upper bounds of every collector histogram: second-denominated
#: round-trip times from sub-millisecond loopback to multi-second stalls
#: (Prometheus ``le`` semantics — each bound is inclusive, with an implicit
#: +Inf bucket).
RTT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


class Histogram:
    """A fixed-bucket distribution (Prometheus histogram semantics).

    ``record()`` is O(log buckets) with zero allocation; percentiles are
    bucket-resolution approximations (the upper bound of the bucket the
    requested rank falls in), which is exactly the fidelity a scraped
    Prometheus histogram would give.
    """

    __slots__ = ("bounds", "bucket_counts", "total", "count", "vmax")

    def __init__(self, bounds: Sequence[float] = RTT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if not self.bounds or list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(
                f"bucket bounds must be non-empty and strictly increasing: "
                f"{bounds}"
            )
        # One slot per bound plus the +Inf overflow bucket (non-cumulative).
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.vmax = 0.0

    def record(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if value > self.vmax:
            self.vmax = value

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Approximate percentile: the bound of the bucket holding the rank."""
        if not self.count:
            return 0.0
        threshold = fraction * self.count
        seen = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= threshold and bucket_count:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.vmax  # +Inf bucket: best honest answer is the max
        return self.vmax

    def cumulative(self) -> List[Tuple[str, int]]:
        """``(le_label, cumulative_count)`` pairs for text exposition."""
        out: List[Tuple[str, int]] = []
        running = 0
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            running += bucket_count
            out.append((f"{bound:g}", running))
        out.append(("+Inf", self.count))
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dump (status files, snapshots, cross-process merge)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.bucket_counts),
            "sum": self.total,
            "count": self.count,
            "max": self.vmax,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        histogram = cls(data.get("bounds") or RTT_BUCKETS)
        histogram.merge_dict(data)
        return histogram

    @classmethod
    def merged(cls, dumps: Iterable[Any]) -> Optional["Histogram"]:
        """One histogram from several ``to_dict()`` dumps (a layer's across
        nodes, or a node's across layers), skipping any malformed dump;
        ``None`` when none is usable. The one merge of published dumps."""
        merged: Optional[Histogram] = None
        for dump in dumps:
            try:
                if merged is None:
                    merged = cls.from_dict(dump)
                else:
                    merged.merge_dict(dump)
            except (AttributeError, KeyError, TypeError, ValueError):
                continue
        return merged

    def merge_dict(self, data: Dict[str, Any]) -> None:
        """Add another histogram's ``to_dict()`` dump into this one.

        Bucket bounds must match — merging across processes only makes
        sense when every node bucketed the same way (they do: bounds are
        keyed by metric name).
        """
        bounds = tuple(float(b) for b in (data.get("bounds") or self.bounds))
        if bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{bounds} != {self.bounds}"
            )
        counts = data.get("counts") or []
        if len(counts) != len(self.bucket_counts):
            raise ValueError(f"bucket count mismatch: {len(counts)}")
        for index, bucket_count in enumerate(counts):
            self.bucket_counts[index] += int(bucket_count)
        self.total += float(data.get("sum") or 0.0)
        self.count += int(data.get("count") or 0)
        self.vmax = max(self.vmax, float(data.get("max") or 0.0))


class Collector(Instrument):
    """Aggregates counters, gauges, typed events, and wall-clock spans.

    Parameters
    ----------
    gauge_every:
        Sampling period (in rounds) of the population-scanning gauges
        recorded by :meth:`observe`. ``1`` samples every round, ``0``
        disables structural sampling entirely (counters, events and spans
        are still recorded — they are push-based and effectively free).
    clock:
        Injectable clock for span timing; defaults to the sanctioned
        wall-clock of :mod:`repro.obs.spans`.
    flow:
        Optional :class:`~repro.obs.flow.FlowTracer`. When present, the
        gossip layers mint provenance tags on self-advertisements and
        report every tagged delivery to it (causal propagation tracing);
        when absent the flow path costs one attribute read per exchange.
    """

    def __init__(
        self,
        gauge_every: int = 1,
        clock: Callable[[], float] = wall_clock,
        flow: Optional[object] = None,
    ):
        self.gauge_every = int(gauge_every)
        self.flow = flow
        # defaultdict: the counter upsert is the hottest instrumented call
        # (three per gossip exchange), and += on a missing-key default
        # beats get()+store there.
        self.counters: Dict[MetricKey, int] = defaultdict(int)
        self.gauges: Dict[MetricKey, float] = {}
        self.histograms: Dict[MetricKey, Histogram] = {}
        self.events: List[Any] = []
        self.unknown_kinds: Dict[str, int] = {}
        self.spans = SpanTimer(clock)
        self.rounds_observed = 0
        self._round_source: Callable[[], int] = lambda: 0

    def bind_round_source(self, source: Callable[[], int]) -> None:
        """Attach the round clock (usually ``lambda: engine.round``)."""
        self._round_source = source

    # -- Instrument protocol ---------------------------------------------------

    def emit(self, kind: str, **details: Any):
        from repro.obs.trace import TraceEvent  # deferred: trace imports events

        event = TraceEvent(round=self._round_source(), kind=kind, details=details)
        self.events.append(event)
        if not is_known(kind):
            self.unknown_kinds[kind] = self.unknown_kinds.get(kind, 0) + 1
        return event

    def count(self, name: str, value: int = 1, layer: str = "") -> None:
        self.counters[(name, layer)] += value

    def count_key(self, key: MetricKey, value: int = 1) -> None:
        # The hottest instrumented call: the key tuple is pre-resolved by
        # the caller, so this is one defaultdict upsert and nothing else.
        self.counters[key] += value

    def gauge(self, name: str, value: float, layer: str = "") -> None:
        self.gauges[(name, layer)] = value

    def histogram(self, name: str, value: float, layer: str = "") -> None:
        key = (name, layer)
        histogram = self.histograms.get(key)
        if histogram is None:
            histogram = Histogram(RTT_BUCKETS)
            self.histograms[key] = histogram
        histogram.record(value)

    def span_begin(self, name: str) -> None:
        self.spans.begin(name)

    def span_end(self, name: str) -> None:
        self.spans.end(name)

    def observe(self, network: Network, round_index: int) -> bool:
        """Sampled structural gauges; never requests a stop."""
        self.rounds_observed += 1
        if self.gauge_every <= 0 or round_index % self.gauge_every != 0:
            return False
        self.gauge("population", network.size())
        self.gauge("population_alive", network.alive_count())
        self._sample_degrees(network)
        return False

    # -- structural sampling ---------------------------------------------------

    def _sample_degrees(self, network: Network) -> None:
        """Per-layer in/out-degree distributions and UO2 bucket occupancy.

        The realized graph of a layer is the union of every live node's
        ``neighbors()`` relation; in-degree is tallied over the same edges.
        Bucketed overlays (UO2) are recognized structurally — any protocol
        exposing per-component ``buckets`` of partial views — so the
        collector never imports concrete layer classes.
        """
        out_degrees: Dict[str, List[int]] = {}
        in_degrees: Dict[str, Dict[int, int]] = {}
        bucket_fill: Dict[str, List[float]] = {}
        bucket_counts: Dict[str, List[int]] = {}
        for node in network.alive_nodes():
            for layer, protocol in node.stack():
                neighbors = protocol.neighbors()
                out_degrees.setdefault(layer, []).append(len(neighbors))
                tally = in_degrees.setdefault(layer, {})
                for neighbor_id in neighbors:
                    tally[neighbor_id] = tally.get(neighbor_id, 0) + 1
                buckets = getattr(protocol, "buckets", None)
                if isinstance(buckets, dict) and buckets:
                    fills = [
                        len(bucket) / bucket.capacity
                        for bucket in buckets.values()
                        if getattr(bucket, "capacity", 0)
                    ]
                    if fills:
                        bucket_fill.setdefault(layer, []).extend(fills)
                    bucket_counts.setdefault(layer, []).append(len(buckets))
        for layer, degrees in out_degrees.items():
            self._gauge_stats("out_degree", degrees, layer)
            tally = in_degrees.get(layer, {})
            # nodes never referenced have in-degree 0; include them so the
            # mean matches the out-degree mean over the same population.
            observed = list(tally.values())
            observed.extend([0] * (len(degrees) - len(observed)))
            self._gauge_stats("in_degree", observed, layer)
        for layer, fills in bucket_fill.items():
            self.gauge("bucket_fill_mean", sum(fills) / len(fills), layer)
        for layer, counts in bucket_counts.items():
            self.gauge(
                "buckets_per_node_mean", sum(counts) / len(counts), layer
            )

    def _gauge_stats(self, prefix: str, values: List[int], layer: str) -> None:
        if not values:
            return
        self.gauge(f"{prefix}_mean", sum(values) / len(values), layer)
        self.gauge(f"{prefix}_min", min(values), layer)
        self.gauge(f"{prefix}_max", max(values), layer)

    # -- queries ---------------------------------------------------------------

    def counter(self, name: str, layer: str = "") -> int:
        return self.counters.get((name, layer), 0)

    def counter_total(self, name: str) -> int:
        """Sum of ``name`` across all layer labels."""
        return sum(
            value for (key, _layer), value in self.counters.items() if key == name
        )

    def gauge_value(self, name: str, layer: str = "") -> Optional[float]:
        return self.gauges.get((name, layer))

    def histogram_of(self, name: str, layer: str = "") -> Optional[Histogram]:
        return self.histograms.get((name, layer))

    def layers(self) -> List[str]:
        """Every non-empty layer label seen in counters or gauges, sorted."""
        labels = {layer for _name, layer in self.counters}
        labels.update(layer for _name, layer in self.gauges)
        labels.discard("")
        return sorted(labels)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data view of the aggregated state (exporter input)."""
        out = {
            "counters": [
                {"name": name, "layer": layer, "value": value}
                for (name, layer), value in sorted(self.counters.items())
            ],
            "gauges": [
                {"name": name, "layer": layer, "value": value}
                for (name, layer), value in sorted(self.gauges.items())
            ],
            "spans": [
                {
                    "name": name,
                    "total_seconds": self.spans.totals[name],
                    "count": self.spans.counts[name],
                    "mean_seconds": self.spans.mean(name),
                }
                for name in self.spans.names()
            ],
            "histograms": [
                dict(name=name, layer=layer, **histogram.to_dict())
                for (name, layer), histogram in sorted(self.histograms.items())
            ],
            "events": len(self.events),
            "unknown_event_kinds": dict(sorted(self.unknown_kinds.items())),
            "rounds_observed": self.rounds_observed,
        }
        if self.flow is not None:
            out["flow"] = self.flow.summary()
        return out
