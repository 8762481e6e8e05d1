"""Fault schedules: every injected fault as data, run by one executor.

A :class:`FaultSchedule` is a frozen tuple of ``(round, op, args)`` events
that round-trips through JSON. The builders (:func:`partition`,
:func:`zone_outage`, :func:`pause_resume`, :func:`link_degradation`,
:func:`random_churn`, :func:`catastrophic_failure`) draw every id when the
schedule is *built*, over the deployment's population at that moment.
:func:`apply` computes the two values that depend on the run when an event
fires: the nodes a heal re-contacts, and how many nodes a resume revives.
:class:`Executor`, the one fault control, applies each event once, at the
start of its round. Every op but ``join`` logs its transition on the fault
plane's event log, against which
:class:`~repro.obs.recovery.RecoveryObserver` times the convergence
tracker's per-round verdicts.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.transports import LinkQuality
from repro.sim.controls import Control

#: Nodes a pause leaves up, whatever its fraction.
MIN_UNPAUSED = 8


class Event(NamedTuple):
    """``op(*args)`` at the start of round ``round``."""

    round: int
    op: str
    args: Tuple[Any, ...] = ()


def _frozen(value: Any) -> Any:
    """``value`` with every list made a tuple (what JSON hands back)."""
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(item) for item in value)
    return value


class FaultSchedule(tuple):
    """:class:`Event` values in (stable) round order; every ``heal`` follows
    a ``cut`` it merges. ``schedule + events`` is the merged schedule."""

    __slots__ = ()

    def __new__(cls, events: Iterable = ()) -> "FaultSchedule":
        events = [Event(round_index, op, _frozen(args)) for round_index, op, args in events]
        for event in events:
            _require(event.op in _OPS, f"unknown fault op {event.op!r}")
            _require(isinstance(event.round, int) and event.round >= 0, f"bad round: {event}")
        events.sort(key=lambda event: event.round)
        cut = False
        for event in events:
            _require(event.op != "heal" or cut, f"heal at round {event.round} follows no cut")
            cut = event.op == "cut" or (cut and event.op != "heal")
        return super().__new__(cls, events)

    def __add__(self, other: Iterable) -> "FaultSchedule":
        return FaultSchedule((*self, *other))

    def to_json(self) -> str:
        return json.dumps(self)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls(json.loads(text))

    def arm(self, deployment) -> "Executor":
        """Run this schedule on ``deployment``'s engine; returns its executor."""
        executor = Executor(self, deployment)
        deployment.engine.add_control(executor)
        return executor


class Executor(Control):
    """Applies each event of ``schedule`` to ``deployment`` exactly once, at
    the start of its round (of the next round, when armed after it)."""

    def __init__(self, schedule: FaultSchedule, deployment):
        self.schedule = schedule
        self.deployment = deployment
        self.applied = 0

    def before_round(self, network, round_index: int) -> None:
        schedule = self.schedule
        while self.applied < len(schedule) and schedule[self.applied].round <= round_index:
            self.applied += 1
            apply(schedule[self.applied - 1], self.deployment)


def apply(event: Event, deployment) -> None:
    """Run ``event`` on ``deployment`` now and log its transition."""
    entry = _OPS[event.op](deployment, *event.args)
    if entry is not None and deployment.faults is not None:
        deployment.faults.record_event(deployment.engine.round, *entry)


# -- the ops: cut(islands) / heal(rendezvous); link(zone_a, zone_b, (loss,
# latency)) / unlink(zone_a, zone_b); pause / resume / kill(ids[, zone]), where
# the zone only names the event; join(n) spares; rebalance(). Each returns the
# event log's (kind, detail), or None.


def _plane(deployment, what: str):
    _require(deployment.faults is not None, f"{what} needs faults installed")
    return deployment.faults


def _cut(deployment, islands):
    _plane(deployment, "cut").set_partition(
        {node_id: side for side, ids in enumerate(islands) for node_id in ids}
    )
    return "partition", f"islands={[len(ids) for ids in islands]}"


def _heal(deployment, rendezvous):
    faults, network = _plane(deployment, "heal"), deployment.network
    island_of = faults.island_of
    faults.clear_partition()
    # The cut's split drew one shuffle of its ids from this stream; the
    # re-contact continues the stream past it.
    rng = deployment.streams.fork("faults").stream("partition")
    rng.shuffle([None] * len(island_of))
    seeded = 0
    for side in sorted(set(island_of.values())):
        live = sorted(
            node_id
            for node_id, island in island_of.items()
            if island == side and network.is_alive(node_id)
        )
        for node_id in rng.sample(live, min(rendezvous, len(live))):
            protocol = network.node(node_id).find("peer_sampling")
            if protocol is not None:
                protocol.bootstrap(rng, network.rendezvous, protocol.params.gossip_size)
                seeded += 1
    return "heal", f"partition merged (rendezvous={seeded})"


def _link(deployment, zone_a, zone_b, quality):
    quality = LinkQuality(*quality)
    _plane(deployment, "link").set_link(zone_a, zone_b, quality)
    pairs = [(zone_a, zone_b)]
    return "degrade", f"zone_pairs={pairs} loss={quality.loss} latency={quality.latency}"


def _unlink(deployment, zone_a, zone_b):
    _plane(deployment, "unlink").clear_link(zone_a, zone_b)
    return "restore", f"zone_pairs={[(zone_a, zone_b)]}"


def _pause(deployment, ids, zone=None, *, kill=False):
    """Take ``ids`` down; a kill differs from a pause only in its log entry."""
    for node_id in ids:
        deployment.network.kill(node_id)
    if zone is not None:
        return f"zone_{'kill' if kill else 'pause'}", f"zone={zone} victims={len(ids)}"
    return ("catastrophe", f"killed={len(ids)}") if kill else ("pause", f"paused={len(ids)}")


def _kill(deployment, ids, zone=None):
    return _pause(deployment, ids, zone, kill=True)


def _resume(deployment, ids, zone=None):
    network = deployment.network
    revived = [n for n in ids if network.has_node(n) and not network.is_alive(n)]
    for node_id in revived:
        network.revive(node_id)
    if zone is None:
        return "resume", f"revived={len(revived)}"
    return "zone_restore", f"zone={zone} revived={len(revived)}"


def _join(deployment, count):
    provision, network = deployment.provisioner(), deployment.network
    for _ in range(count):
        provision(network, network.create_node())


def _rebalance(deployment):
    deployment.rebalance()
    return "rebalance", "roles reassigned"


_OPS = {
    "cut": _cut, "heal": _heal, "link": _link, "unlink": _unlink, "pause": _pause,
    "resume": _resume, "kill": _kill, "join": _join, "rebalance": _rebalance,
}


# -- builders ---------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _check_window(at_round: int, until_round: Optional[int], what: str) -> None:
    _require(at_round >= 0, f"{what}: at_round must be >= 0, got {at_round}")
    _require(
        until_round is None or until_round > at_round,
        f"{what}: the window must end after round {at_round}, got {until_round}",
    )


def split_islands(node_ids: List[int], rng: random.Random) -> Dict[int, int]:
    """A random near-equal split of ``node_ids`` into two islands."""
    _require(len(node_ids) >= 2, f"cannot split {len(node_ids)} node(s) into 2 islands")
    shuffled = sorted(node_ids)
    rng.shuffle(shuffled)
    return {node_id: index % 2 for index, node_id in enumerate(shuffled)}


def partition(deployment, at_round, heal_round, rendezvous=4) -> FaultSchedule:
    """Cut the live population into two random islands at ``at_round``;
    heal at ``heal_round``, when ``rendezvous`` live nodes per island
    re-bootstrap their peer-sampling view from the rendezvous. The split
    and the re-contacts draw from one stream, the deployment's
    ``("faults", "partition")``: the heal continues it past the split. Two
    overlays segregated by a long cut never find each other epidemically:
    with ``rendezvous=0`` they stay apart."""
    _check_window(at_round, heal_round, "partition")
    _require(rendezvous >= 0, f"rendezvous must be >= 0, got {rendezvous}")
    _plane(deployment, "partition")
    rng = deployment.streams.fork("faults").stream("partition")
    island_of = split_islands(deployment.network.alive_ids(), rng)
    islands = [sorted(n for n, side in island_of.items() if side == s) for s in (0, 1)]
    return FaultSchedule([(at_round, "cut", (islands,)), (heal_round, "heal", (rendezvous,))])


def zone_outage(deployment, zone, at_round, mode="kill", restore_round=None) -> FaultSchedule:
    """Take every live node of ``zone`` down at ``at_round``: for good
    (``mode="kill"``), or frozen with its state until ``restore_round``
    (``mode="pause"``, a recoverable outage that leaves zombies)."""
    faults = deployment.faults
    _require(
        faults is not None and faults.zones is not None,
        "zone_outage needs faults installed with a ZoneMap",
    )
    _require(mode in ("kill", "pause"), f"mode must be 'kill' or 'pause', got {mode!r}")
    _require(
        (mode == "pause") == (restore_round is not None),
        "zone_outage takes a restore_round in pause mode, and only there",
    )
    _check_window(at_round, restore_round, "zone_outage")
    victims = faults.zones.members(zone, deployment.network.alive_ids())
    events = [(at_round, mode, (victims, zone))]
    if mode == "pause":
        events.append((restore_round, "resume", (victims, zone)))
    return FaultSchedule(events)


def pause_resume(deployment, rng, at_round, resume_round, fraction) -> FaultSchedule:
    """Pause a random ``fraction`` of the live population (at least
    :data:`MIN_UNPAUSED` stay up) at ``at_round``; resume it at
    ``resume_round`` as zombies with views that many rounds stale."""
    _require(0.0 < fraction < 1.0, f"fraction must be in (0, 1), got {fraction}")
    _check_window(at_round, resume_round, "pause_resume")
    alive = list(deployment.network.alive_ids())
    count = min(int(len(alive) * fraction), max(0, len(alive) - MIN_UNPAUSED))
    paused = sorted(rng.sample(alive, count))
    return FaultSchedule([(at_round, "pause", (paused,)), (resume_round, "resume", (paused,))])


def link_degradation(
    deployment, at_round, quality, zone_pairs, restore_round=None
) -> FaultSchedule:
    """Give each of ``zone_pairs`` the link quality ``quality`` at
    ``at_round``, until ``restore_round`` when given. Every zone must be in
    the fault plane's zone map."""
    _check_window(at_round, restore_round, "link_degradation")
    pairs = [tuple(pair) for pair in zone_pairs]
    _require(bool(pairs), "link_degradation needs at least one zone_pair")
    faults = _plane(deployment, "link_degradation")
    for zone_a, zone_b in pairs:
        faults.zone_pair(zone_a, zone_b)
    levels = (quality.loss, quality.latency)
    events = [(at_round, "link", (a, b, levels)) for a, b in pairs]
    if restore_round is not None:
        events += [(restore_round, "unlink", (a, b)) for a, b in pairs]
    return FaultSchedule(events)


def random_churn(
    deployment, rng, crash_rate=0.0, join_count=0, min_population=8,
    *, at_round, until_round,
) -> FaultSchedule:
    """Memoryless churn in rounds ``[at_round, until_round)``: each round,
    each live node crashes with probability ``crash_rate`` (never below
    ``min_population`` live nodes), then ``join_count`` spares join. The
    coins are drawn now, over the sorted live ids and the ids joiners will
    get, so nothing else may change the population in the window. Joins are
    provisioned by the deployment
    (:meth:`~repro.core.runtime.Deployment.provisioner`)."""
    _require(0.0 <= crash_rate < 1.0, f"crash_rate must be in [0, 1), got {crash_rate}")
    _require(join_count >= 0, f"join_count must be >= 0, got {join_count}")
    _check_window(at_round, until_round, "random_churn")
    network = deployment.network
    alive, next_id, events = list(network.alive_ids()), network.next_id, []
    for round_index in range(at_round, until_round):
        crashed = []
        for node_id in alive if crash_rate > 0.0 else ():
            if len(alive) - len(crashed) <= min_population:
                break
            if rng.random() < crash_rate:
                crashed.append(node_id)
        gone = set(crashed)
        alive = [n for n in alive if n not in gone] + list(range(next_id, next_id + join_count))
        next_id += join_count
        if crashed:
            events.append((round_index, "kill", (crashed,)))
        if join_count:
            events.append((round_index, "join", (join_count,)))
    return FaultSchedule(events)


def catastrophic_failure(deployment, rng, at_round, fraction, min_population=8) -> FaultSchedule:
    """Kill ``fraction`` of the live population at ``at_round``, leaving at
    least ``min_population`` live nodes (the Polystyrene-style catastrophe)."""
    _require(0.0 < fraction < 1.0, f"fraction must be in (0, 1), got {fraction}")
    _check_window(at_round, None, "catastrophic_failure")
    _require(min_population >= 0, f"min_population must be >= 0, got {min_population}")
    alive = list(deployment.network.alive_ids())
    count = min(int(len(alive) * fraction), max(0, len(alive) - min_population))
    return FaultSchedule([(at_round, "kill", (sorted(rng.sample(alive, count)),))])
