"""The fault plane: one stackable Transport decorator that owns every fault.

:class:`FaultTransport` wraps an inner :class:`~repro.sim.transport.Transport`
and holds the whole fault state of a run:

- a **partition map** (``node_id -> island``): exchanges between different
  islands are dropped; nodes missing from the map (joined mid-partition)
  are unrestricted;
- one **link table**: an unordered zone pair -> :class:`LinkQuality` (loss
  probability, extra latency), resolved through the decorator's
  :class:`~repro.faults.zones.ZoneMap` (``(zone, zone)`` degrades traffic
  within one zone). To degrade one node's links, give it a zone of its own;
- an **event log** of timestamped :class:`FaultEvent` transitions, against
  which :class:`~repro.obs.recovery.RecoveryObserver` times the convergence
  tracker's verdicts.

:meth:`FaultTransport.deliverable` vetoes (or delays) exchanges as that
state dictates, accounting every drop (``partition`` / ``loss`` /
``timeout``) and delay per layer on the wrapped ledger, and chains to the
inner transport otherwise. It stacks over the round engine's ledger, the
wire-codec loopback, and the UDP runtime's local transport alike. This is
the only fault path: protocol code never consults fault state, it asks the
transport. A fault schedule (:mod:`repro.faults.schedule`) mutates the
state at round boundaries.

``tests/runtime/test_fault_transport.py`` pins a mixed
partition/loss/latency schedule through :class:`FaultTransport` to golden
digests and drop/delay counts: every link-fault coin comes from the
``("linkfaults", layer, node)`` streams, so a seeded run is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional

from repro.errors import ConfigurationError
from repro.faults.zones import ZoneMap
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport, TransportDecorator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import RoundContext

__all__ = [
    "TIMEOUT_ROUNDS",
    "FaultEvent",
    "FaultTransport",
    "LinkQuality",
]

#: Extra latency (in rounds) at which a degraded exchange times out and is
#: dropped instead of delayed: it cannot complete within its own round, so
#: it misses the synchronous round deadline.
TIMEOUT_ROUNDS = 1.0


@dataclass(frozen=True)
class LinkQuality:
    """Quality of the links between two zones.

    Attributes
    ----------
    loss:
        Probability in ``[0, 1]`` that an exchange over the link is lost.
        ``1.0`` models a blackholed path (silent partition of one link).
    latency:
        Extra latency, in fractions of a round, added to each surviving
        exchange. The cycle-driven model delivers within the round, so
        latency is *accounted* (per-layer delayed counters, mean extra
        latency) rather than re-ordered; a latency at or beyond
        :data:`TIMEOUT_ROUNDS` turns into a drop (the request timed out).
    """

    loss: float = 0.0
    latency: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss <= 1.0:
            raise ConfigurationError(f"link loss must be in [0, 1], got {self.loss}")
        if self.latency < 0.0:
            raise ConfigurationError(
                f"link latency must be >= 0, got {self.latency}"
            )


@dataclass(frozen=True)
class FaultEvent:
    """One timestamped fault transition (injection or repair)."""

    round: int
    kind: str
    detail: str = ""

    def __str__(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        return f"r{self.round} {self.kind}{suffix}"


class FaultTransport(TransportDecorator):
    """Partitions, zone-pair link faults and the fault event log at the
    transport seam.

    Draws link-fault coins from the ``("linkfaults", layer, src)`` streams,
    and only for a link whose loss is strictly between 0 and 1. While no
    partition or link rule is installed the decorator adds one check per
    exchange and draws nothing, so runs stay bit-identical to an un-armed
    deployment.
    """

    def __init__(
        self,
        inner: Transport,
        streams: RandomStreams,
        zones: Optional[ZoneMap] = None,
    ):
        super().__init__(inner)
        self.streams = streams
        self.zones = zones
        self.links: Dict[FrozenSet[str], LinkQuality] = {}
        self.events: List[FaultEvent] = []
        self._island_of: Dict[int, int] = {}

    # -- partitions -----------------------------------------------------------

    def set_partition(self, island_of: Dict[int, int]) -> None:
        """Split the population: nodes in different islands cannot talk."""
        if not island_of:
            raise ConfigurationError("a partition needs a non-empty island map")
        self._island_of = dict(island_of)

    def clear_partition(self) -> None:
        """Heal the partition: full reachability is restored."""
        self._island_of = {}

    @property
    def island_of(self) -> Dict[int, int]:
        """The active partition map, ``node_id -> island`` (empty when none)."""
        return self._island_of

    @property
    def partition_active(self) -> bool:
        return bool(self._island_of)

    def partitioned(self, a: int, b: int) -> bool:
        """Whether the active partition separates ``a`` from ``b``."""
        island_a = self._island_of.get(a)
        island_b = self._island_of.get(b)
        return island_a is not None and island_b is not None and island_a != island_b

    # -- link table -----------------------------------------------------------

    def zone_pair(self, zone_a: str, zone_b: str) -> FrozenSet[str]:
        """The link-table key of two zones of the zone map.

        A rule the zone map cannot resolve would degrade nothing, so a
        missing map or an unknown zone is a configuration error.
        """
        if self.zones is None:
            raise ConfigurationError(
                "a zone link rule needs faults installed with a ZoneMap"
            )
        for zone in (zone_a, zone_b):
            if zone not in self.zones.zone_names:
                raise ConfigurationError(
                    f"unknown zone {zone!r} (zones: {self.zones.zone_names})"
                )
        return frozenset((zone_a, zone_b))

    def set_link(self, zone_a: str, zone_b: str, quality: LinkQuality) -> None:
        """Degrade all traffic between two zones (or within one, if equal)."""
        self.links[self.zone_pair(zone_a, zone_b)] = quality

    def clear_link(self, zone_a: str, zone_b: str) -> None:
        self.links.pop(self.zone_pair(zone_a, zone_b), None)

    def quality(self, a: int, b: int) -> Optional[LinkQuality]:
        """The rule degrading the link ``a -- b`` (``None``: a perfect link)."""
        if not self.links:
            return None
        zones = self.zones
        return self.links.get(frozenset((zones.zone_of(a), zones.zone_of(b))))

    @property
    def active(self) -> bool:
        """Whether any fault can currently affect an exchange."""
        return bool(self._island_of or self.links)

    # -- the transport seam ---------------------------------------------------

    def deliverable(self, ctx: "RoundContext", dst: int, layer: str = "") -> bool:
        if self.active:
            if not layer and ctx is not None:
                layer = ctx.layer
            src = ctx.node.node_id if ctx is not None else -1
            if not self._passes(src, dst, layer):
                return False
        return self.inner.deliverable(ctx, dst, layer)

    def reachable(self, ctx: "RoundContext", dst: int) -> bool:
        if self._island_of:
            src = ctx.node.node_id if ctx is not None else -1
            if self.partitioned(src, dst):
                return False
        return self.inner.reachable(ctx, dst)

    def _passes(self, src: int, dst: int, layer: str) -> bool:
        """Whether one synchronous exchange ``src -> dst`` goes through.

        A push-pull exchange is atomic in the cycle model: if either
        direction fails the whole exchange fails, so one predicate guards
        both.
        """
        if self.partitioned(src, dst):
            self.inner.record_dropped(layer, reason="partition")
            return False
        quality = self.quality(src, dst)
        if quality is None:
            return True
        if quality.loss > 0.0 and (
            quality.loss >= 1.0
            or self.streams.stream("linkfaults", layer, src).random() < quality.loss
        ):
            self.inner.record_dropped(layer, reason="loss")
            return False
        if quality.latency > 0.0:
            if quality.latency >= TIMEOUT_ROUNDS:
                self.inner.record_dropped(layer, reason="timeout")
                return False
            self.inner.record_delayed(layer, quality.latency)
        return True

    # -- event log ------------------------------------------------------------

    def record_event(self, round_index: int, kind: str, detail: str = "") -> FaultEvent:
        """Timestamp a fault transition for the recovery report."""
        event = FaultEvent(round=round_index, kind=kind, detail=detail)
        self.events.append(event)
        return event
