"""Fault-injection controls: scheduled, correlated, recoverable failures.

These extend the memoryless churn models of :mod:`repro.sim.churn` with the
correlated scenarios self-stabilizing overlay work stress-tests against:

- :class:`Partition` — split the live population into islands for a window
  of rounds, then heal (WAN cut / switch failure);
- :class:`ZoneOutage` — kill or pause every node of one zone at once
  (rack / availability-zone outage);
- :class:`PauseResume` — stop a random fraction of nodes and bring them
  back later *with their stale state* (zombie VMs: long GC pauses, live
  migrations, suspended instances), distinct from crash-stop kills;
- :class:`LinkDegradation` — install per-link loss/latency overrides for a
  window of rounds (congested or flaky paths).

Every control records its transitions on the shared
:class:`~repro.faults.plane.FaultPlane` event log, which is what the
:class:`~repro.obs.recovery.RecoveryObserver` measures repair times
against.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.faults.plane import FaultPlane, LinkQuality, split_islands
from repro.gossip.descriptors import Descriptor
from repro.sim.controls import Control
from repro.sim.network import Network


def _check_window(at_round: int, until_round: Optional[int], what: str) -> None:
    if at_round < 0:
        raise ConfigurationError(f"{what}: at_round must be >= 0, got {at_round}")
    if until_round is not None and until_round <= at_round:
        raise ConfigurationError(
            f"{what}: the window must end after round {at_round}, "
            f"got {until_round}"
        )


def rendezvous_reseed(
    network: Network,
    groups: Sequence[Sequence[int]],
    rng: random.Random,
    per_group: int = 4,
    layer: str = "peer_sampling",
) -> int:
    """Give up to ``per_group`` nodes of each group one cross-group contact.

    The out-of-band rendezvous (bootstrap-service re-contact) that lets
    segregated gossip overlays merge again: fully disjoint overlays have no
    epidemic path back to each other, so somebody must inject the first
    cross-group descriptor. Used by :class:`Partition` at heal time and by
    the remediation engine (:mod:`repro.heal`) whenever it detects overlay
    segregation.

    Idempotent and safe under repeated invocation: each call inserts age-0
    descriptors (which the youngest-kept view rule and the tombstone-lifting
    rule both accept cleanly), dead or departed nodes are skipped, and a
    group that has lost every member simply seeds nothing. Returns the
    number of contacts seeded.
    """
    alive_groups = [
        sorted(node_id for node_id in group if network.is_alive(node_id))
        for group in groups
    ]
    alive_groups = [group for group in alive_groups if group]
    if len(alive_groups) < 2:
        return 0
    seeded = 0
    for index, members in enumerate(alive_groups):
        foreign = [
            node_id
            for other, group in enumerate(alive_groups)
            if other != index
            for node_id in group
        ]
        seeds = rng.sample(members, min(per_group, len(members)))
        for node_id in seeds:
            node = network.node(node_id)
            if not node.has_protocol(layer):
                continue
            contact = rng.choice(foreign)
            node.protocol(layer).view.insert(
                Descriptor(contact, age=0, profile=None)
            )
            seeded += 1
    return seeded


class Partition(Control):
    """Split the live population into islands at ``at_round``; heal at
    ``heal_round``.

    Parameters
    ----------
    plane:
        The shared fault plane the engine consults.
    at_round, heal_round:
        Window of rounds during which the cut is in force.
    islands:
        Number of islands for the default random split.
    rng:
        Random stream for the default split (required unless ``island_of``
        is given).
    island_of:
        Optional custom split: a callable receiving the live id list and
        returning the ``node_id -> island`` mapping (e.g.
        :func:`~repro.faults.plane.split_by_zone` applied through a
        lambda).
    rendezvous:
        Number of nodes per island re-seeded with one cross-island contact
        when the partition heals. A long cut fully segregates the gossip
        substrate (every cross-island descriptor is timed out or aged out),
        and two disjoint overlays can never rediscover each other
        epidemically — exactly as in a real deployment, where merging a
        healed WAN partition requires an out-of-band rendezvous (the
        bootstrap / seed service). The re-seed models that re-contact; the
        epidemic merge that follows is what the recovery observer times.
        Set to 0 to model a system without a rendezvous service (the
        overlays then stay segregated — a measurable negative result).
    rendezvous_layer:
        The layer whose view receives the rendezvous descriptors.
    """

    def __init__(
        self,
        plane: FaultPlane,
        at_round: int,
        heal_round: int,
        islands: int = 2,
        rng: Optional[random.Random] = None,
        island_of: Optional[Callable[[List[int]], Dict[int, int]]] = None,
        rendezvous: int = 4,
        rendezvous_layer: str = "peer_sampling",
    ):
        _check_window(at_round, heal_round, "Partition")
        if island_of is None and rng is None:
            raise ConfigurationError(
                "Partition needs an rng for its default random split "
                "(or a custom island_of callable)"
            )
        if islands < 2:
            raise ConfigurationError(
                f"a partition needs >= 2 islands, got {islands}"
            )
        if rendezvous < 0:
            raise ConfigurationError(
                f"rendezvous must be >= 0, got {rendezvous}"
            )
        if rendezvous > 0 and rng is None:
            raise ConfigurationError(
                "rendezvous re-seeding needs an rng (pass rendezvous=0 "
                "to model a system without a bootstrap service)"
            )
        self.plane = plane
        self.at_round = at_round
        self.heal_round = heal_round
        self.islands = islands
        self.rng = rng
        self.island_of = island_of
        self.rendezvous = rendezvous
        self.rendezvous_layer = rendezvous_layer
        self.fired = False
        self.healed = False
        self._mapping: Dict[int, int] = {}

    def before_round(self, network: Network, round_index: int) -> None:
        if not self.fired and round_index >= self.at_round:
            self.fired = True
            live = list(network.alive_ids())
            if self.island_of is not None:
                mapping = self.island_of(live)
            else:
                assert self.rng is not None  # guaranteed by __init__
                mapping = split_islands(live, self.islands, self.rng)
            self._mapping = mapping
            self.plane.set_partition(mapping)
            sizes = [len(island) for island in self.plane.islands()]
            self.plane.record_event(
                round_index, "partition", f"islands={sizes}"
            )
        if self.fired and round_index >= self.heal_round:
            self.heal(network, round_index)

    def heal(self, network: Network, round_index: int) -> int:
        """Heal the cut now: clear the plane, rendezvous-reseed the islands.

        Idempotent: the first call clears the partition, re-seeds, and
        records the ``heal`` event; every later call (a remediation engine
        may fire the heal path more than once per incident) is a no-op
        returning 0. Returns the number of rendezvous contacts seeded.
        """
        if not self.fired or self.healed:
            return 0
        self.healed = True
        self.plane.clear_partition()
        seeded = self._reintroduce(network)
        self.plane.record_event(
            round_index, "heal", f"partition merged (rendezvous={seeded})"
        )
        return seeded

    def _reintroduce(self, network: Network) -> int:
        """Give ``rendezvous`` nodes per island one cross-island contact.

        Mimics the bootstrap-service re-contact that lets a real system
        merge after a cut; without it two fully segregated gossip overlays
        have no epidemic path back to each other.
        """
        if self.rendezvous == 0 or self.rng is None:
            return 0
        by_island: Dict[int, List[int]] = defaultdict(list)
        for node_id, island in self._mapping.items():
            by_island[island].append(node_id)
        return rendezvous_reseed(
            network,
            [by_island[island] for island in sorted(by_island)],
            self.rng,
            per_group=self.rendezvous,
            layer=self.rendezvous_layer,
        )

    @property
    def active(self) -> bool:
        return self.fired and not self.healed


class ZoneOutage(Control):
    """Take a whole zone down at once — the correlated cloud failure.

    ``mode="kill"`` crash-stops the zone (nodes never return; spares or
    survivors must absorb the roles). ``mode="pause"`` models a recoverable
    outage (power event, control-plane brownout): the nodes freeze with
    their state and, at ``restore_round``, resume as zombies holding views
    that are ``restore_round - at_round`` rounds stale.
    """

    def __init__(
        self,
        plane: FaultPlane,
        zone: str,
        at_round: int,
        mode: str = "kill",
        restore_round: Optional[int] = None,
    ):
        if plane.zones is None:
            raise ConfigurationError("ZoneOutage needs a plane with a ZoneMap")
        if mode not in ("kill", "pause"):
            raise ConfigurationError(
                f"ZoneOutage mode must be 'kill' or 'pause', got {mode!r}"
            )
        if mode == "pause" and restore_round is None:
            raise ConfigurationError("ZoneOutage pause mode needs a restore_round")
        if mode == "kill" and restore_round is not None:
            raise ConfigurationError(
                "ZoneOutage kill mode is permanent; drop restore_round "
                "or use mode='pause'"
            )
        _check_window(at_round, restore_round, "ZoneOutage")
        self.plane = plane
        self.zone = zone
        self.at_round = at_round
        self.mode = mode
        self.restore_round = restore_round
        self.fired = False
        self.restored = False
        self.victims: List[int] = []

    def before_round(self, network: Network, round_index: int) -> None:
        if not self.fired and round_index >= self.at_round:
            self.fired = True
            assert self.plane.zones is not None
            self.victims = self.plane.zones.members(
                self.zone, network.alive_ids()
            )
            for node_id in self.victims:
                network.kill(node_id)
            self.plane.record_event(
                round_index,
                f"zone_{self.mode}",
                f"zone={self.zone} victims={len(self.victims)}",
            )
        if (
            self.mode == "pause"
            and self.fired
            and not self.restored
            and self.restore_round is not None
            and round_index >= self.restore_round
        ):
            self.restored = True
            revived = 0
            for node_id in self.victims:
                if network.has_node(node_id) and not network.is_alive(node_id):
                    network.revive(node_id)
                    revived += 1
            self.plane.record_event(
                round_index, "zone_restore", f"zone={self.zone} revived={revived}"
            )


class PauseResume(Control):
    """Pause a random fraction of the live population, resume it later.

    The resumed nodes are *zombies*: they kept their pre-pause protocol
    state, so their views reference a world ``resume_round - at_round``
    rounds old. Dead-descriptor hygiene (view tombstones, descriptor TTLs)
    is what keeps their stale knowledge from re-polluting the overlay —
    exactly what the recovery tests quantify.
    """

    def __init__(
        self,
        plane: FaultPlane,
        rng: random.Random,
        at_round: int,
        resume_round: int,
        fraction: float,
        min_population: int = 8,
    ):
        if not 0.0 < fraction < 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1), got {fraction}")
        _check_window(at_round, resume_round, "PauseResume")
        self.plane = plane
        self.rng = rng
        self.at_round = at_round
        self.resume_round = resume_round
        self.fraction = fraction
        self.min_population = min_population
        self.fired = False
        self.resumed = False
        self.paused: List[int] = []

    def before_round(self, network: Network, round_index: int) -> None:
        if not self.fired and round_index >= self.at_round:
            self.fired = True
            alive = list(network.alive_ids())
            n_paused = min(
                int(len(alive) * self.fraction),
                max(0, len(alive) - self.min_population),
            )
            self.paused = sorted(self.rng.sample(alive, n_paused))
            for node_id in self.paused:
                network.kill(node_id)
                network.node(node_id).attributes["paused"] = True
            self.plane.record_event(
                round_index, "pause", f"paused={len(self.paused)}"
            )
        if self.fired and not self.resumed and round_index >= self.resume_round:
            self.resumed = True
            revived = 0
            for node_id in self.paused:
                if network.has_node(node_id) and not network.is_alive(node_id):
                    network.revive(node_id)
                    revived += 1
                if network.has_node(node_id):
                    network.node(node_id).attributes.pop("paused", None)
            self.plane.record_event(round_index, "resume", f"revived={revived}")


class LinkDegradation(Control):
    """Install link-quality overrides for a window of rounds.

    ``pairs`` degrades specific node pairs, ``nodes`` every link touching
    the named nodes, ``zone_pairs`` whole zone-to-zone paths. At
    ``restore_round`` (when given) the installed rules are removed again.
    """

    def __init__(
        self,
        plane: FaultPlane,
        at_round: int,
        quality: LinkQuality,
        pairs: Iterable[Tuple[int, int]] = (),
        nodes: Iterable[int] = (),
        zone_pairs: Iterable[Tuple[str, str]] = (),
        restore_round: Optional[int] = None,
    ):
        _check_window(at_round, restore_round, "LinkDegradation")
        self.plane = plane
        self.at_round = at_round
        self.quality = quality
        self.pairs = [tuple(pair) for pair in pairs]
        self.nodes = list(nodes)
        self.zone_pairs = [tuple(pair) for pair in zone_pairs]
        if not (self.pairs or self.nodes or self.zone_pairs):
            raise ConfigurationError(
                "LinkDegradation needs at least one pair, node or zone_pair"
            )
        self.restore_round = restore_round
        self.fired = False
        self.restored = False

    def _scope(self) -> str:
        parts = []
        if self.pairs:
            parts.append(f"pairs={len(self.pairs)}")
        if self.nodes:
            parts.append(f"nodes={len(self.nodes)}")
        if self.zone_pairs:
            parts.append(f"zone_pairs={self.zone_pairs}")
        return " ".join(parts)

    def before_round(self, network: Network, round_index: int) -> None:
        if not self.fired and round_index >= self.at_round:
            self.fired = True
            for a, b in self.pairs:
                self.plane.links.set_pair(a, b, self.quality)
            for node_id in self.nodes:
                self.plane.links.set_node(node_id, self.quality)
            for zone_a, zone_b in self.zone_pairs:
                self.plane.links.set_zone_pair(zone_a, zone_b, self.quality)
            self.plane.record_event(
                round_index,
                "degrade",
                f"{self._scope()} loss={self.quality.loss} "
                f"latency={self.quality.latency}",
            )
        if (
            self.fired
            and not self.restored
            and self.restore_round is not None
            and round_index >= self.restore_round
        ):
            self.restored = True
            for a, b in self.pairs:
                self.plane.links.clear_pair(a, b)
            for node_id in self.nodes:
                self.plane.links.clear_node(node_id)
            for zone_a, zone_b in self.zone_pairs:
                self.plane.links.clear_zone_pair(zone_a, zone_b)
            self.plane.record_event(round_index, "restore", self._scope())
