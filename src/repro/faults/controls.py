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
- :class:`LinkDegradation` — degrade zone-to-zone links (loss/latency)
  for a window of rounds (congested or flaky paths).

Every control takes the deployment's
:class:`~repro.faults.transports.FaultTransport` (``faults``), mutates its
partition map or link table, and records its transitions on its event log,
which is what the :class:`~repro.obs.recovery.RecoveryObserver` measures
repair times against.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.transports import FaultTransport, LinkQuality
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


def split_islands(node_ids: List[int], rng: random.Random) -> Dict[int, int]:
    """A random near-equal split of ``node_ids`` into two islands."""
    if len(node_ids) < 2:
        raise ConfigurationError(
            f"cannot split {len(node_ids)} node(s) into 2 islands"
        )
    shuffled = sorted(node_ids)
    rng.shuffle(shuffled)
    return {node_id: index % 2 for index, node_id in enumerate(shuffled)}


class Partition(Control):
    """Split the live population into two random islands at ``at_round``;
    heal at ``heal_round``.

    Parameters
    ----------
    faults:
        The deployment's fault transport.
    at_round, heal_round:
        Window of rounds during which the cut is in force.
    rng:
        Random stream for the split and the rendezvous re-seed.
    rendezvous:
        Number of live nodes per island that re-contact the rendezvous
        (:class:`~repro.sim.network.Rendezvous`, the bootstrap / seed
        service) when the partition heals, each drawing ``gossip_size``
        peer-sampling contacts from the whole registered population. A long
        cut fully segregates the gossip substrate (every cross-island
        descriptor is timed out or aged out), and two disjoint overlays can
        never rediscover each other epidemically — exactly as in a real
        deployment, where merging a healed WAN partition requires an
        out-of-band re-contact. The epidemic merge that follows is what the
        recovery observer times. Set to 0 to model a system without a
        rendezvous service (the overlays then stay segregated — a
        measurable negative result).
    """

    def __init__(
        self,
        faults: FaultTransport,
        at_round: int,
        heal_round: int,
        rng: random.Random,
        rendezvous: int = 4,
    ):
        _check_window(at_round, heal_round, "Partition")
        if rendezvous < 0:
            raise ConfigurationError(
                f"rendezvous must be >= 0, got {rendezvous}"
            )
        self.faults = faults
        self.at_round = at_round
        self.heal_round = heal_round
        self.rng = rng
        self.rendezvous = rendezvous
        self.fired = False
        self.healed = False
        self._mapping: Dict[int, int] = {}

    def before_round(self, network: Network, round_index: int) -> None:
        if not self.fired and round_index >= self.at_round:
            self.fired = True
            self._mapping = split_islands(list(network.alive_ids()), self.rng)
            self.faults.set_partition(self._mapping)
            sizes = [len(island) for island in self._islands()]
            self.faults.record_event(
                round_index, "partition", f"islands={sizes}"
            )
        if self.fired and round_index >= self.heal_round:
            self.heal(network, round_index)

    def heal(self, network: Network, round_index: int) -> int:
        """Heal the cut now: clear the partition, and let ``rendezvous``
        live nodes of each island re-bootstrap from the rendezvous.

        Idempotent: the first call clears the partition, re-contacts, and
        records the ``heal`` event; every later call (a remediation engine
        may fire the heal path more than once per incident) is a no-op
        returning 0. Returns the number of nodes that re-contacted.
        """
        if not self.fired or self.healed:
            return 0
        self.healed = True
        self.faults.clear_partition()
        seeded = 0
        for island in self._islands():
            live = sorted(node_id for node_id in island if network.is_alive(node_id))
            for node_id in self.rng.sample(live, min(self.rendezvous, len(live))):
                node = network.node(node_id)
                if node.has_protocol("peer_sampling"):
                    protocol = node.protocol("peer_sampling")
                    protocol.bootstrap(
                        self.rng, network.rendezvous, protocol.params.gossip_size
                    )
                    seeded += 1
        self.faults.record_event(
            round_index, "heal", f"partition merged (rendezvous={seeded})"
        )
        return seeded

    def _islands(self) -> List[List[int]]:
        """The split's two islands as id lists, island 0 first."""
        return [
            [node_id for node_id, island in self._mapping.items() if island == side]
            for side in (0, 1)
        ]


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
        faults: FaultTransport,
        zone: str,
        at_round: int,
        mode: str = "kill",
        restore_round: Optional[int] = None,
    ):
        if faults.zones is None:
            raise ConfigurationError("ZoneOutage needs faults installed with a ZoneMap")
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
        self.faults = faults
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
            assert self.faults.zones is not None
            self.victims = self.faults.zones.members(
                self.zone, network.alive_ids()
            )
            for node_id in self.victims:
                network.kill(node_id)
            self.faults.record_event(
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
            self.faults.record_event(
                round_index, "zone_restore", f"zone={self.zone} revived={revived}"
            )


class PauseResume(Control):
    """Pause a random fraction of the live population, resume it later.

    The resumed nodes are *zombies*: they kept their pre-pause protocol
    state, so their views reference a world ``resume_round - at_round``
    rounds old. Dead-descriptor hygiene (view tombstones, descriptor TTLs)
    is what keeps their stale knowledge from re-polluting the overlay —
    exactly what the recovery tests quantify. At least
    :data:`MIN_UNPAUSED` nodes stay up.
    """

    MIN_UNPAUSED = 8

    def __init__(
        self,
        faults: FaultTransport,
        rng: random.Random,
        at_round: int,
        resume_round: int,
        fraction: float,
    ):
        if not 0.0 < fraction < 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1), got {fraction}")
        _check_window(at_round, resume_round, "PauseResume")
        self.faults = faults
        self.rng = rng
        self.at_round = at_round
        self.resume_round = resume_round
        self.fraction = fraction
        self.fired = False
        self.resumed = False
        self.paused: List[int] = []

    def before_round(self, network: Network, round_index: int) -> None:
        if not self.fired and round_index >= self.at_round:
            self.fired = True
            alive = list(network.alive_ids())
            n_paused = min(
                int(len(alive) * self.fraction),
                max(0, len(alive) - self.MIN_UNPAUSED),
            )
            self.paused = sorted(self.rng.sample(alive, n_paused))
            for node_id in self.paused:
                network.kill(node_id)
            self.faults.record_event(
                round_index, "pause", f"paused={len(self.paused)}"
            )
        if self.fired and not self.resumed and round_index >= self.resume_round:
            self.resumed = True
            revived = 0
            for node_id in self.paused:
                if network.has_node(node_id) and not network.is_alive(node_id):
                    network.revive(node_id)
                    revived += 1
            self.faults.record_event(round_index, "resume", f"revived={revived}")


class LinkDegradation(Control):
    """Degrade whole zone-to-zone paths for a window of rounds.

    Each of ``zone_pairs`` gets ``quality`` in the fault transport's link
    table at ``at_round``; at ``restore_round`` (when given) the rules are
    removed again. Every zone must be in the transport's zone map.
    """

    def __init__(
        self,
        faults: FaultTransport,
        at_round: int,
        quality: LinkQuality,
        zone_pairs: Iterable[Tuple[str, str]],
        restore_round: Optional[int] = None,
    ):
        _check_window(at_round, restore_round, "LinkDegradation")
        self.zone_pairs = [tuple(pair) for pair in zone_pairs]
        if not self.zone_pairs:
            raise ConfigurationError("LinkDegradation needs at least one zone_pair")
        for zone_a, zone_b in self.zone_pairs:
            faults.zone_pair(zone_a, zone_b)
        self.faults = faults
        self.at_round = at_round
        self.quality = quality
        self.restore_round = restore_round
        self.fired = False
        self.restored = False

    def before_round(self, network: Network, round_index: int) -> None:
        scope = f"zone_pairs={self.zone_pairs}"
        if not self.fired and round_index >= self.at_round:
            self.fired = True
            for zone_a, zone_b in self.zone_pairs:
                self.faults.set_link(zone_a, zone_b, self.quality)
            self.faults.record_event(
                round_index,
                "degrade",
                f"{scope} loss={self.quality.loss} latency={self.quality.latency}",
            )
        if (
            self.fired
            and not self.restored
            and self.restore_round is not None
            and round_index >= self.restore_round
        ):
            self.restored = True
            for zone_a, zone_b in self.zone_pairs:
                self.faults.clear_link(zone_a, zone_b)
            self.faults.record_event(round_index, "restore", scope)
