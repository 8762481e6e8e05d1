"""The fault plane: reachability and link quality between live nodes.

The simulator's original failure vocabulary was two-fold — memoryless
per-node crashes and one global uniform ``loss_rate``. Real clouds fail in
*correlated* ways: a switch dies and a whole rack drops out, a WAN cut
splits regions into islands, a congested path loses and delays traffic for
minutes. The :class:`FaultPlane` is the single source of truth for those
conditions:

- a **partition** assigns every node to an island; exchanges between
  different islands are dropped (layers ask the transport seam, where
  :class:`~repro.faults.transports.FaultTransport` consults the plane);
- a **link-quality table** (:class:`LinkFaults`) overrides the global loss
  model per (src, dst) pair, per node, or per zone pair, each with a loss
  probability and an extra latency; the transport accounts every dropped
  and delayed exchange per layer;
- an **event log** timestamps every fault transition so the
  :class:`~repro.obs.recovery.RecoveryObserver` can report
  time-to-repair relative to injection and healing.

Controls (:mod:`repro.faults.controls`) mutate the plane at round
boundaries; the plane itself is passive state plus predicates, so a single
plane can be shared by the engine, the controls and the observers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from repro.errors import ConfigurationError
from repro.faults.zones import ZoneMap
from repro.sim.transport import Transport


@dataclass(frozen=True)
class LinkQuality:
    """Quality of one directed-pair class of links.

    Attributes
    ----------
    loss:
        Probability in ``[0, 1]`` that an exchange over the link is lost.
        ``1.0`` models a blackholed path (silent partition of one link).
    latency:
        Extra latency, in fractions of a round, added to each surviving
        exchange. The cycle-driven model delivers within the round, so
        latency is *accounted* (per-layer delayed counters, mean extra
        latency) rather than re-ordered; a latency at or beyond the plane's
        ``timeout_latency`` turns into a drop (the request timed out).
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

    @property
    def degraded(self) -> bool:
        return self.loss > 0.0 or self.latency > 0.0


PERFECT_LINK = LinkQuality()


class LinkFaults:
    """Per-link quality overrides, replacing the single global loss rate.

    Rules are matched most-specific first:

    1. an exact (unordered) node pair;
    2. a per-node rule — every link touching the node; when both endpoints
       carry one, the element-wise worst applies (loss and latency max);
    3. an (unordered) zone pair, resolved through the plane's zone map
       (``(zone, zone)`` degrades intra-zone traffic);
    4. the table's default (a perfect link unless configured otherwise).
    """

    def __init__(self, default: LinkQuality = PERFECT_LINK):
        self.default = default
        self._pairs: Dict[FrozenSet[int], LinkQuality] = {}
        self._nodes: Dict[int, LinkQuality] = {}
        self._zone_pairs: Dict[FrozenSet[str], LinkQuality] = {}

    # -- rule installation ----------------------------------------------------

    def set_pair(self, a: int, b: int, quality: LinkQuality) -> None:
        """Override the (symmetric) link between nodes ``a`` and ``b``."""
        if a == b:
            raise ConfigurationError("a link needs two distinct endpoints")
        self._pairs[frozenset((a, b))] = quality

    def set_node(self, node_id: int, quality: LinkQuality) -> None:
        """Degrade every link touching ``node_id`` (a flaky NIC / slow VM)."""
        self._nodes[node_id] = quality

    def set_zone_pair(self, zone_a: str, zone_b: str, quality: LinkQuality) -> None:
        """Degrade all traffic between two zones (or within one, if equal)."""
        self._zone_pairs[frozenset((zone_a, zone_b))] = quality

    def clear_pair(self, a: int, b: int) -> None:
        self._pairs.pop(frozenset((a, b)), None)

    def clear_node(self, node_id: int) -> None:
        self._nodes.pop(node_id, None)

    def clear_zone_pair(self, zone_a: str, zone_b: str) -> None:
        self._zone_pairs.pop(frozenset((zone_a, zone_b)), None)

    def clear(self) -> None:
        """Drop every rule (the default quality is kept)."""
        self._pairs.clear()
        self._nodes.clear()
        self._zone_pairs.clear()

    # -- lookup ---------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether any rule (or a degraded default) is installed."""
        return bool(
            self._pairs or self._nodes or self._zone_pairs or self.default.degraded
        )

    def quality(
        self, a: int, b: int, zones: Optional[ZoneMap] = None
    ) -> LinkQuality:
        """The effective quality of the link ``a -- b``."""
        pair = self._pairs.get(frozenset((a, b)))
        if pair is not None:
            return pair
        node_a = self._nodes.get(a)
        node_b = self._nodes.get(b)
        if node_a is not None or node_b is not None:
            if node_a is None:
                return node_b  # type: ignore[return-value]
            if node_b is None:
                return node_a
            return LinkQuality(
                loss=max(node_a.loss, node_b.loss),
                latency=max(node_a.latency, node_b.latency),
            )
        if self._zone_pairs and zones is not None:
            zone_rule = self._zone_pairs.get(
                frozenset((zones.zone_of(a), zones.zone_of(b)))
            )
            if zone_rule is not None:
                return zone_rule
        return self.default

    def __repr__(self) -> str:
        return (
            f"LinkFaults(pairs={len(self._pairs)}, nodes={len(self._nodes)}, "
            f"zone_pairs={len(self._zone_pairs)})"
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


class FaultPlane:
    """Shared fault state consulted by every peer-addressed exchange.

    Parameters
    ----------
    zones:
        Optional zone placement, required for zone-pair link rules and used
        by :class:`~repro.faults.controls.ZoneOutage`.
    timeout_latency:
        Extra latency (in rounds) at which a degraded exchange is treated
        as timed out and dropped instead of merely delayed. Defaults to 1.0:
        an exchange that cannot complete within its own round misses the
        synchronous round deadline.
    """

    def __init__(
        self,
        zones: Optional[ZoneMap] = None,
        timeout_latency: float = 1.0,
    ):
        if timeout_latency <= 0.0:
            raise ConfigurationError(
                f"timeout_latency must be > 0, got {timeout_latency}"
            )
        self.zones = zones
        self.timeout_latency = timeout_latency
        self.links = LinkFaults()
        self.events: List[FaultEvent] = []
        self._island_of: Dict[int, int] = {}
        self._partition_active = False

    # -- partitions -----------------------------------------------------------

    def set_partition(self, island_of: Dict[int, int]) -> None:
        """Split the population: nodes in different islands cannot talk.

        Nodes absent from the mapping (e.g. joined mid-partition) are
        unrestricted — they model fresh instances whose placement the
        partition does not cover.
        """
        if not island_of:
            raise ConfigurationError("a partition needs a non-empty island map")
        self._island_of = dict(island_of)
        self._partition_active = True

    def clear_partition(self) -> None:
        """Heal the partition: full reachability is restored."""
        self._island_of = {}
        self._partition_active = False

    @property
    def partition_active(self) -> bool:
        return self._partition_active

    def islands(self) -> List[List[int]]:
        """The current islands as sorted id lists (empty when healed)."""
        grouped: Dict[int, List[int]] = {}
        for node_id, island in self._island_of.items():
            grouped.setdefault(island, []).append(node_id)
        return [sorted(members) for _, members in sorted(grouped.items())]

    def island_of(self, node_id: int) -> Optional[int]:
        return self._island_of.get(node_id)

    def reachable(self, a: int, b: int) -> bool:
        """Whether the active partition allows ``a`` and ``b`` to exchange."""
        if not self._partition_active:
            return True
        island_a = self._island_of.get(a)
        island_b = self._island_of.get(b)
        if island_a is None or island_b is None:
            return True
        return island_a == island_b

    # -- link quality ---------------------------------------------------------

    def quality(self, a: int, b: int) -> LinkQuality:
        return self.links.quality(a, b, self.zones)

    @property
    def active(self) -> bool:
        """Whether the plane can currently affect any exchange.

        The fault transport short-circuits on this, so an
        installed-but-idle plane costs nothing on the hot path.
        """
        return self._partition_active or self.links.active

    # -- the per-exchange predicate -------------------------------------------

    def exchange_ok(
        self,
        rng: random.Random,
        src: int,
        dst: int,
        transport: Optional[Transport] = None,
        layer: str = "",
    ) -> bool:
        """Whether one synchronous exchange ``src -> dst`` goes through.

        A push-pull exchange is atomic in the cycle model: if either
        direction fails the whole exchange fails, so one predicate guards
        both. Drops and delays are accounted on ``transport`` per layer.
        """
        if not self.reachable(src, dst):
            if transport is not None:
                transport.record_dropped(layer, reason="partition")
            return False
        quality = self.quality(src, dst)
        if quality.loss > 0.0 and (
            quality.loss >= 1.0 or rng.random() < quality.loss
        ):
            if transport is not None:
                transport.record_dropped(layer, reason="loss")
            return False
        if quality.latency > 0.0:
            if quality.latency >= self.timeout_latency:
                if transport is not None:
                    transport.record_dropped(layer, reason="timeout")
                return False
            if transport is not None:
                transport.record_delayed(layer, quality.latency)
        return True

    # -- event log ------------------------------------------------------------

    def record_event(self, round_index: int, kind: str, detail: str = "") -> FaultEvent:
        """Timestamp a fault transition for the recovery report."""
        event = FaultEvent(round=round_index, kind=kind, detail=detail)
        self.events.append(event)
        return event

    def events_of(self, kind: str) -> List[FaultEvent]:
        return [event for event in self.events if event.kind == kind]

    def __repr__(self) -> str:
        return (
            f"FaultPlane(partition={self._partition_active}, "
            f"links={self.links!r}, events={len(self.events)})"
        )


def split_islands(
    node_ids: List[int], islands: int, rng: random.Random
) -> Dict[int, int]:
    """A random near-equal split of ``node_ids`` into ``islands`` islands."""
    if islands < 2:
        raise ConfigurationError(f"a partition needs >= 2 islands, got {islands}")
    if len(node_ids) < islands:
        raise ConfigurationError(
            f"cannot split {len(node_ids)} node(s) into {islands} islands"
        )
    shuffled = sorted(node_ids)
    rng.shuffle(shuffled)
    island_of: Dict[int, int] = {}
    for index, node_id in enumerate(shuffled):
        island_of[node_id] = index % islands
    return island_of


def split_by_zone(zones: ZoneMap, node_ids: List[int]) -> Dict[int, int]:
    """Partition along zone boundaries (each zone becomes one island)."""
    index_of: Dict[str, int] = {
        name: index for index, name in enumerate(zones.zone_names)
    }
    return {node_id: index_of[zones.zone_of(node_id)] for node_id in node_ids}
