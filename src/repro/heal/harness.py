"""Adversarial-state generators: start the overlay from corrupted views.

The fault rows of :mod:`repro.heal.scenarios` inject *environmental*
failures — cuts, kills, pauses — and the self-organizing layers absorb
those well: gossip hygiene (tombstones, oldest-first purging, rendezvous
re-bootstrap on empty views) flushes localized damage in a handful of
rounds without help. What unmanaged gossip **cannot** repair is damage to
the knowledge graph's connectivity: two overlays whose views reference
disjoint node sets have no epidemic path back to each other, ever. The
generators here therefore model the corrupted-state starts a long-lived
system actually needs intervention for — each disconnects the overlay a
different way and leaves different debris for the health rules to see:

- :func:`corrupt_segregated` — every cross-group view entry is dropped
  with probability ``degree``: at 1.0 the knowledge graph splits into two
  fully disjoint overlays (a replay/restore bug; there is no physical cut
  — the network is fine, only the views are wrong). Thin views, no junk:
  only the convergence stall gives it away.
- :func:`corrupt_poisoned` — the eclipse attack: cross-group entries in
  the gossip substrates are *replaced* by forged sybil descriptors (nodes
  that do not exist), planted fresh at age 0, plus a side helping of
  in-group junk. Views stay full — of poison. Fires the dead-descriptor
  buildup on top of the stall; repair needs a purge *and* a re-join.
- :func:`corrupt_stale` — the stale-backup restore: a correlated kill
  wave, the corpses re-advertised at age 0 into the survivors' views, and
  the surviving views rolled back to a pre-merge epoch in which the two
  halves of the system did not yet know each other. Fires the churn
  spike, the buildup, and the stall; repair composes the elastic
  rebalance, the purge, and the re-join.

Each generator mutates a converged deployment in place, drawing only from
the passed-in seeded stream (iteration is in sorted id order, so the
corruption is a pure function of (deployment, seed, degree)), and returns
a JSON-able description of what it injected. ``degree`` scales corruption
severity in ``[0, 1]``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Set, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.gossip.descriptors import Descriptor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import Deployment

#: Forged node ids start here — far above any real population, so
#: ``network.is_alive`` is False and every consumer's liveness guard holds.
FORGED_ID_BASE = 10_000_000

#: View-bearing layers the generators corrupt (UO2 keeps per-component
#: buckets instead of one view and is handled separately).
_VIEW_LAYERS = ("peer_sampling", "uo1", "core")


def _check_degree(degree: float) -> None:
    if not 0.0 <= degree <= 1.0:
        raise ConfigurationError(f"degree must be in [0, 1], got {degree}")


def _split_groups(rng: random.Random, live: List[int]) -> Set[int]:
    """One random half of ``live`` — the segregation boundary."""
    shuffled = rng.sample(live, len(live))
    return set(shuffled[: len(shuffled) // 2])


def _cross_predicate(
    group_a: Set[int], member: bool, rng: random.Random, degree: float
) -> Callable[[Descriptor], bool]:
    """True (with probability ``degree``) for entries crossing the split."""

    def predicate(descriptor: Descriptor) -> bool:
        if (descriptor.node_id in group_a) == member:
            return False  # same side of the split
        return rng.random() < degree

    return predicate


def _drop_cross(
    deployment: "Deployment",
    live: List[int],
    group_a: Set[int],
    rng: random.Random,
    degree: float,
    layers: tuple = _VIEW_LAYERS,
    buckets: bool = True,
) -> int:
    """Drop cross-group entries from views (and UO2 buckets); returns count."""
    network = deployment.network
    dropped = 0
    for node_id in live:
        node = network.node(node_id)
        member = node_id in group_a
        for layer in layers:
            if node.has_protocol(layer):
                dropped += node.protocol(layer).view.discard_where(
                    _cross_predicate(group_a, member, rng, degree)
                )
        if buckets and node.has_protocol("uo2"):
            table = node.protocol("uo2").buckets
            for component in sorted(table):
                dropped += table[component].discard_where(
                    _cross_predicate(group_a, member, rng, degree)
                )
    return dropped


def corrupt_segregated(
    deployment: "Deployment", rng: random.Random, degree: float = 1.0
) -> Dict[str, Any]:
    """Split the overlay's knowledge into two groups, dropping cross links.

    The population is cut into two random halves; every view entry (and
    UO2 bucket entry) crossing the halves is dropped with probability
    ``degree``. At 1.0 the two knowledge graphs are fully disjoint: no
    discovery channel (gossip, harvesting) can cross, and — because every
    node still holds live same-group entries — the empty-view rendezvous
    re-bootstrap never triggers either. An unmanaged overlay stays
    segregated forever; re-joining requires the rendezvous re-seed of the
    remediation engine.
    """
    _check_degree(degree)
    live = deployment.network.alive_ids()
    group_a = _split_groups(rng, live)
    dropped = _drop_cross(deployment, live, group_a, rng, degree)
    return {
        "mode": "segregated",
        "degree": degree,
        "groups": [len(group_a), len(live) - len(group_a)],
        "entries_dropped": dropped,
    }


def corrupt_poisoned(
    deployment: "Deployment", rng: random.Random, degree: float = 1.0
) -> Dict[str, Any]:
    """Eclipse the overlay: cross-group entries become forged sybils.

    In the gossip substrates (peer sampling, UO1) every cross-group entry
    is *replaced* — with probability ``degree`` — by a forged descriptor
    of a node that does not exist, planted at age 0 so the oldest-first
    hygiene flushes it last. The structural layers (core, UO2) lose their
    cross-group entries outright. Only cross entries are touched: each
    view keeps its live in-group stock, so no view ever purges down to
    empty and the rendezvous re-bootstrap (a node's last-resort rejoin
    path) never fires — which is exactly what makes the eclipse
    stick. Views stay full — of poison: at 1.0 every real path between
    the halves is gone and roughly half of each gossip view points at
    phantoms.
    """
    _check_degree(degree)
    network = deployment.network
    live = network.alive_ids()
    group_a = _split_groups(rng, live)
    forged = 0
    for node_id in live:
        node = network.node(node_id)
        member = node_id in group_a
        for layer in ("peer_sampling", "uo1"):
            if not node.has_protocol(layer):
                continue
            protocol = node.protocol(layer)
            view = protocol.view
            profile = getattr(protocol, "profile", None)
            cross = _cross_predicate(group_a, member, rng, degree)
            victims = [
                descriptor.node_id
                for descriptor in view.descriptors()
                if cross(descriptor)
            ]
            for victim in victims:
                view.remove(victim)
                view.insert(
                    Descriptor(FORGED_ID_BASE + forged, age=0, profile=profile)
                )
                forged += 1
    dropped = _drop_cross(
        deployment, live, group_a, rng, degree, layers=("core",), buckets=True
    )
    return {
        "mode": "poisoned",
        "degree": degree,
        "groups": [len(group_a), len(live) - len(group_a)],
        "forged": forged,
        "entries_dropped": dropped,
    }


def corrupt_stale(
    deployment: "Deployment", rng: random.Random, degree: float = 1.0
) -> Dict[str, Any]:
    """Restore from a stale backup: corpses look fresh, the merge is undone.

    Three correlated injuries, all scaled by ``degree``:

    - a kill wave takes out ``0.3 * degree`` of the live population;
    - the corpses are re-advertised at age 0 into the survivors'
      peer-sampling views (dead knowledge presented as brand new);
    - the survivors' views are rolled back to a pre-merge epoch: entries
      crossing a random halving of the survivors are dropped, as if the
      restored state predates the two halves ever meeting.

    Unmanaged, the corpses flush but the halves stay strangers and the
    vacated roles stay vacant; the managed loop composes all three
    repairs (purge, elastic rebalance, rendezvous re-seed).
    """
    _check_degree(degree)
    network = deployment.network
    live = network.alive_ids()
    n_kill = min(int(len(live) * 0.3 * degree), max(0, len(live) - 8))
    victims = sorted(rng.sample(live, n_kill))
    for victim in victims:
        network.kill(victim)
    survivors = network.alive_ids()
    flooded = 0
    if victims:
        for node_id in survivors:
            node = network.node(node_id)
            if not node.has_protocol("peer_sampling"):
                continue
            protocol = node.protocol("peer_sampling")
            corpses = rng.sample(
                victims, min(protocol.params.gossip_size, len(victims))
            )
            for corpse in corpses:
                if protocol.view.insert(Descriptor(corpse, age=0, profile=None)):
                    flooded += 1
    group_a = _split_groups(rng, survivors)
    dropped = _drop_cross(deployment, survivors, group_a, rng, degree)
    # A survivor whose restored view holds no live entry at all would,
    # once hygiene purges the corpses, empty out and be rescued for free
    # by the rendezvous re-bootstrap. A real stale backup still
    # knows *some* live same-side peer; anchor one so the islands stay
    # islands and the re-join is the engine's to make.
    anchors = 0
    group_b = set(survivors) - group_a
    for node_id in survivors:
        node = network.node(node_id)
        if not node.has_protocol("peer_sampling"):
            continue
        view = node.protocol("peer_sampling").view
        if any(network.is_alive(d.node_id) for d in view.descriptors()):
            continue
        mates = sorted(
            (group_a if node_id in group_a else group_b) - {node_id}
        )
        if not mates:
            continue
        if len(view) >= view.capacity:
            view.remove(max(view.ids()))  # make room: drop one corpse
        if view.insert(Descriptor(rng.choice(mates), age=0, profile=None)):
            anchors += 1
    return {
        "mode": "stale",
        "degree": degree,
        "killed": len(victims),
        "corpses_flooded": flooded,
        "groups": [len(group_a), len(survivors) - len(group_a)],
        "entries_dropped": dropped,
        "anchors_seeded": anchors,
    }


#: Corruption registry: mode name -> generator(deployment, rng, degree).
CORRUPTIONS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "segregated": corrupt_segregated,
    "poisoned": corrupt_poisoned,
    "stale": corrupt_stale,
}


def corruption_modes() -> List[str]:
    """Every corruption mode, sorted (CLI choices / matrix order)."""
    return sorted(CORRUPTIONS)
