"""Causal propagation tracing — *why* convergence is fast or slow.

The counters of :class:`~repro.obs.collector.Collector` say how much each
layer gossips; this module says what that gossip *achieves*. When a
:class:`FlowTracer` is attached (``Collector(flow=FlowTracer())``), every
self-advertisement entering a gossip buffer is tagged with one integer, the
round it was minted in (:meth:`~repro.gossip.descriptors.Descriptor.tagged`;
its origin is the descriptor's own node), and every tagged descriptor
delivered by an exchange is recorded here. From those records the tracer
derives:

- **propagation-latency distributions** per layer: how many rounds a
  descriptor needs to travel from its origin to each node that learns it;
- the **information-flow graph**: which (sender → receiver) pairs actually
  moved new knowledge, and how often;
- the **convergence critical path**: for the (origin, receiver) pair whose
  first delivery happened last — the final missing edge of the knowledge
  graph — the chain of exchanges that carried the descriptor there. Its
  length is the hop count: one definition, computed at query time from the
  first-delivery table, for one in-process tracer and for the merge of a
  swarm's per-node tracers alike (a node never sees its sender's table).

Tracing is observation only: the tracer reads what an exchange delivered
and hands nothing back, tags never participate in descriptor equality or
selection, no RNG stream is touched, and with the tracer disabled the hot
path pays a single attribute read per exchange. Deliveries arrive in
engine order, so every derived structure — including the critical path —
is a pure function of the simulation seed.

Simulation-side module: no wall-clock reads (DET003 applies here).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.gossip.descriptors import Descriptor


class Delivery(NamedTuple):
    """The first time ``receiver`` learned of ``origin`` at a layer."""

    round: int
    sender: int
    latency: int  # rounds from minting to this delivery


class CriticalPath(NamedTuple):
    """The exchange chain that closed the last missing knowledge edge."""

    layer: str
    origin: int
    receiver: int
    closed_round: int
    #: Exchanges on ``path``: always ``len(path) - 1``.
    hops: int
    #: Node chain origin → ... → receiver, reconstructed from first
    #: deliveries (each node's own first-receipt sender, walked backwards).
    path: Tuple[int, ...]


class FlowTracer:
    """Aggregates provenance-tagged descriptor deliveries per layer.

    Attach via ``Collector(flow=FlowTracer())`` (or set ``collector.flow``
    before wiring); the gossip layers mint tags and report deliveries
    through :meth:`on_received` only while a tracer is present.
    """

    def __init__(self) -> None:
        #: layer -> latency (rounds) -> delivery count.
        self.latencies: Dict[str, Dict[int, int]] = {}
        #: layer -> (sender, receiver) -> tagged-descriptor deliveries.
        self.edges: Dict[str, Dict[Tuple[int, int], int]] = {}
        #: layer -> (origin, receiver) -> first delivery record.
        self.first_delivery: Dict[str, Dict[Tuple[int, int], Delivery]] = {}
        self.deliveries = 0

    # -- hot-path hooks (called by the gossip layers) -------------------------

    def on_received(
        self,
        layer: str,
        round_index: int,
        receiver: int,
        sender: int,
        received: List[Descriptor],
    ) -> None:
        """Record one exchange's deliveries.

        Untagged descriptors (minted before tracing started, or copied via
        non-exchange paths such as harvesting) are not deliveries.
        """
        try:
            latencies = self.latencies[layer]
            edges = self.edges[layer]
            first = self.first_delivery[layer]
        except KeyError:  # the layer's first exchange
            latencies = self.latencies.setdefault(layer, {})
            edges = self.edges.setdefault(layer, {})
            first = self.first_delivery.setdefault(layer, {})
        delivered = 0
        for descriptor in received:
            minted_round = descriptor.provenance
            if minted_round is None:
                continue
            origin = descriptor.node_id
            if origin == receiver:
                continue  # own knowledge echoed back carries no information
            delivered += 1
            # In-process runs share one round counter, so this is always
            # >= 0. Live swarm nodes advance their counters independently;
            # a tag minted at a faster peer's round 5 can arrive during the
            # receiver's round 4. Clamp to zero so cross-node distributions
            # stay well-defined (see docs/observability.md, "clock skew").
            latency = round_index - minted_round
            if latency < 0:
                latency = 0
            latencies[latency] = latencies.get(latency, 0) + 1
            pair = (origin, receiver)
            if pair not in first:
                first[pair] = Delivery(round_index, sender, latency)
        if delivered:
            self.deliveries += delivered
            edge = (sender, receiver)
            edges[edge] = edges.get(edge, 0) + delivered

    # -- cross-process merge ---------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """JSON-safe dump of the raw tables (cross-process merge input).

        Unlike :meth:`summary` this loses nothing: a supervisor absorbing
        every node's state reconstructs the swarm-wide flow graph, latency
        distributions, and critical paths exactly as if one tracer had
        observed every delivery.
        """
        return {
            "deliveries": self.deliveries,
            "latencies": {
                layer: sorted(histogram.items())
                for layer, histogram in self.latencies.items()
            },
            "edges": {
                layer: [
                    [sender, receiver, count]
                    for (sender, receiver), count in sorted(table.items())
                ]
                for layer, table in self.edges.items()
            },
            "first": {
                layer: [
                    [origin, receiver, d.round, d.sender, d.latency]
                    for (origin, receiver), d in sorted(table.items())
                ]
                for layer, table in self.first_delivery.items()
            },
        }

    def absorb_state(self, state: Dict[str, object]) -> None:
        """Merge a :meth:`to_state` dump (typically from another process).

        Counts add; first deliveries keep the earliest ``(round, sender)``
        record per (origin, receiver) pair. Tolerant of missing keys so
        partially-written status files degrade to partial data, never a
        crash.
        """
        for layer, pairs in (state.get("latencies") or {}).items():
            histogram = self.latencies.setdefault(layer, {})
            for latency, count in pairs:
                latency = int(latency)
                histogram[latency] = histogram.get(latency, 0) + int(count)
        for layer, triples in (state.get("edges") or {}).items():
            table = self.edges.setdefault(layer, {})
            for sender, receiver, count in triples:
                edge = (int(sender), int(receiver))
                table[edge] = table.get(edge, 0) + int(count)
        for layer, rows in (state.get("first") or {}).items():
            table = self.first_delivery.setdefault(layer, {})
            for origin, receiver, round_index, sender, latency in rows:
                pair = (int(origin), int(receiver))
                record = Delivery(int(round_index), int(sender), int(latency))
                existing = table.get(pair)
                if existing is None or record[:2] < existing[:2]:
                    table[pair] = record
        self.deliveries += int(state.get("deliveries") or 0)

    # -- queries ---------------------------------------------------------------

    def layers(self) -> List[str]:
        return sorted(self.first_delivery)

    def latency_stats(self, layer: str) -> Optional[Dict[str, float]]:
        """count/mean/p50/p95/max of the layer's propagation latencies."""
        histogram = self.latencies.get(layer)
        if not histogram:
            return None
        total = sum(histogram.values())
        weighted = sum(latency * count for latency, count in histogram.items())
        ordered = sorted(histogram.items())

        def percentile(fraction: float) -> int:
            threshold = fraction * total
            seen = 0
            for latency, count in ordered:
                seen += count
                if seen >= threshold:
                    return latency
            return ordered[-1][0]

        return {
            "count": total,
            "mean": weighted / total,
            "p50": percentile(0.50),
            "p95": percentile(0.95),
            "max": ordered[-1][0],
        }

    def critical_path(self, layer: str) -> Optional[CriticalPath]:
        """The exchange chain behind the layer's last-closed knowledge edge.

        The *last missing edge* is the (origin, receiver) pair whose first
        delivery carries the highest round (ties broken on the pair itself,
        so the result is deterministic). The chain is reconstructed
        backwards through each intermediate node's own first receipt of the
        same origin; a relay that forwarded a copy from a later chain is
        approximated by its first-receipt sender, which can only shorten
        the reported path.
        """
        table = self.first_delivery.get(layer)
        if not table:
            return None
        origin, receiver = max(
            table, key=lambda pair: (table[pair].round, pair)
        )
        closing = table[(origin, receiver)]
        chain: List[int] = [receiver]
        current = receiver
        seen = {receiver}
        while True:
            record = table.get((origin, current))
            if record is None:
                break
            sender = record.sender
            if sender in seen:
                break  # defensive: a relay loop cannot extend the chain
            chain.append(sender)
            seen.add(sender)
            if sender == origin:
                break
            current = sender
        if chain[-1] != origin:
            chain.append(origin)
        chain.reverse()
        return CriticalPath(
            layer=layer,
            origin=origin,
            receiver=receiver,
            closed_round=closing.round,
            hops=len(chain) - 1,
            path=tuple(chain),
        )

    def summary(self) -> Dict[str, Dict]:
        """Plain-data per-layer view (exporter/registry input)."""
        out: Dict[str, Dict] = {}
        for layer in self.layers():
            stats = self.latency_stats(layer)
            path = self.critical_path(layer)
            out[layer] = {
                "deliveries": sum(self.latencies.get(layer, {}).values()),
                "flow_edges": len(self.edges.get(layer, {})),
                "known_pairs": len(self.first_delivery.get(layer, {})),
                "latency": stats,
                "critical_path": None if path is None else path._asdict(),
            }
        return out


def merge_flow_states(states) -> FlowTracer:
    """One tracer absorbing every dump in ``states`` (falsy entries skipped).

    The swarm supervisor's entry point: each node publishes
    ``tracer.to_state()`` in its status file, and this reconstructs the
    cross-node flow report.
    """
    merged = FlowTracer()
    for state in states:
        if not state:
            continue
        try:
            merged.absorb_state(state)
        except (AttributeError, KeyError, TypeError, ValueError):
            continue  # one node's corrupt dump must not sink the swarm view
    return merged
