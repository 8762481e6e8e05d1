"""The remediation action library — the *act* side of the closed loop.

Each :class:`RemediationAction` maps one class of health alert to a concrete
repair over a live :class:`~repro.core.runtime.Deployment`:

==========================  ===================================================
action                      repairs
==========================  ===================================================
:class:`RendezvousReseed`   overlay segregation — nodes drawn from the
                            rendezvous re-bootstrap their peer-sampling views
                            from it (the re-contact a fault schedule's
                            ``heal`` op applies)
:class:`ElasticAdjust`      churn spikes — re-runs the role assignment over
                            the live population (elastic replica adjustment)
                            and re-bootstraps starved peer-sampling views
:class:`TombstonePurge`     dead-descriptor buildup — purges every view entry
                            pointing at a dead or forged node (leaving
                            tombstones against resurrection), then re-seeds
                            the views it starved
==========================  ===================================================

Every action returns a JSON-able result dict whose ``outcome`` obeys a
three-way protocol the engine's retry accounting relies on:

- ``"applied"`` — state was changed; burns a retry attempt;
- ``"noop"`` — the action found nothing to repair (e.g. the overlay graph
  is already connected); burns an attempt too, so an incident whose
  mapped action cannot help still ends ``unrecoverable`` in bounded time;
- ``"deferred"`` — repairing now is futile (e.g. re-seeding across a still
  active partition cut); free — the engine retries next round.

Each action also declares the engine's backoff between its attempts:
``base_delay`` rounds after the first, doubling per attempt up to
``max_delay`` (see :func:`repro.heal.engine.delay`).

Actions draw randomness only from the rng handed in by the engine (a
``streams.fork("heal")`` stream), never from module state, and iterate in
sorted id order — this package is under the DET linter's ordering rules.

Every re-contact is one rule: ``bootstrap(rng, rendezvous, gossip_size)``
on the node's :class:`~repro.gossip.peer_sampling.PeerSampling`, drawing
from the deployment's :class:`~repro.sim.network.Rendezvous`.

The module also exposes the pure view-level primitives the actions are
built from (:func:`purge_dead`, :func:`seed_view`); the property-based
tests drive these directly to show every remediation preserves the
:class:`~repro.gossip.views.PartialView` invariants.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Sequence, TYPE_CHECKING

from repro.gossip.descriptors import Descriptor
from repro.gossip.views import PartialView
from repro.obs.recovery import DEFAULT_VIEW_LAYERS, dead_view_ids

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import Deployment
    from repro.obs.health import Alert

#: The three legal ``outcome`` values of an action result.
OUTCOMES = ("applied", "noop", "deferred")


# -- pure view-level primitives -------------------------------------------------


def purge_dead(view: PartialView, dead_ids: Sequence[int]) -> int:
    """Purge ``dead_ids`` from ``view``, leaving tombstones; returns count.

    Pure and idempotent: purging an absent id still records the tombstone
    but changes no live entry, and re-purging is a no-op. Never violates a
    view invariant (capacity, uniqueness) — it only removes.
    """
    purged = 0
    for dead in sorted(set(dead_ids)):
        if view.get(dead) is not None:
            purged += 1
        view.purge(dead)
    return purged


def seed_view(view: PartialView, contact_ids: Sequence[int]) -> int:
    """Insert fresh (age 0) descriptors for ``contact_ids``; returns count.

    Age-0 insertion lifts tombstones by design (a fresh descriptor is
    first-hand evidence of life) and respects capacity — a full view
    evicts to make room rather than overflowing. ``insert`` alone rejects
    age ties (a full view of age-0 entries would refuse an age-0 contact),
    but seeded contacts are first-hand evidence while resident entries are
    hearsay, so the tie goes to the contact: evict the oldest non-contact
    bystander (ties broken by highest id) and insert anyway. Contacts only
    ever displace bystanders — once the view is all contacts, the
    remainder are dropped.
    """
    seeded = 0
    contact_set = set(contact_ids)
    for contact in contact_ids:
        if view.insert(Descriptor(contact, age=0, profile=None)):
            seeded += 1
            continue
        if contact in view or not view.is_full():
            continue
        bystanders = [
            d for d in view.descriptors() if d.node_id not in contact_set
        ]
        if not bystanders:
            continue
        victim = max(bystanders, key=lambda d: (d.age, d.node_id))
        view.remove(victim.node_id)
        if view.insert(Descriptor(contact, age=0, profile=None)):
            seeded += 1
    return seeded


def _view_of(node, layer: str) -> Optional[PartialView]:
    """The protocol's PartialView when it has one (UO2 keeps buckets)."""
    if not node.has_protocol(layer):
        return None
    view = getattr(node.protocol(layer), "view", None)
    return view if isinstance(view, PartialView) else None


# -- action protocol ------------------------------------------------------------


class RemediationAction:
    """Base of every remediation action.

    Subclasses implement :meth:`apply`, mutating the deployment and
    returning a result dict with an ``outcome`` key (see the module
    docstring for the protocol). Every subclass sets ``base_delay`` and
    ``max_delay``, which bound the engine's wait, in rounds, between
    attempts on incidents this action serves.
    """

    name = "remediation_action"
    base_delay: int
    max_delay: int

    def apply(
        self,
        deployment: "Deployment",
        alert: Optional["Alert"],
        round_index: int,
        rng: random.Random,
    ) -> Dict[str, Any]:
        raise NotImplementedError


class RendezvousReseed(RemediationAction):
    """Re-join a segregated overlay through the rendezvous.

    Draws :attr:`CONTACTS` ids from the deployment's rendezvous; each live
    one re-bootstraps its peer-sampling view from the rendezvous, whose
    sample spans the whole registered population, so contacts land across
    whatever knowledge split the overlay is in. Repeated invocation only
    adds fresh age-0 contacts. Defers while a partition cut is still
    active — seeding across a cut is futile because the fault transport
    drops the resulting exchanges.
    """

    name = "rendezvous_reseed"
    base_delay = 4
    max_delay = 16
    #: Ids drawn from the rendezvous per attempt.
    CONTACTS = 8

    def apply(self, deployment, alert, round_index, rng):
        faults = deployment.faults
        if faults is not None and faults.partition_active:
            return {"outcome": "deferred", "reason": "partition cut still active"}
        network = deployment.network
        seeded = 0
        for node_id in network.rendezvous.sample(rng, self.CONTACTS):
            if not network.is_alive(node_id):
                continue
            node = network.node(node_id)
            if node.has_protocol("peer_sampling"):
                protocol = node.protocol("peer_sampling")
                protocol.bootstrap(
                    rng, network.rendezvous, protocol.params.gossip_size
                )
                seeded += 1
        if seeded == 0:
            return {"outcome": "noop"}
        return {"outcome": "applied", "seeded": seeded}


class ElasticAdjust(RemediationAction):
    """Absorb a churn spike: elastic role rebalance + view re-bootstrap.

    Re-runs the assignment rule over the live population (crashed nodes
    lose their roles; survivors and spares absorb the vacated ranks) via
    :meth:`~repro.core.runtime.Deployment.rebalance`, then re-bootstraps
    any peer-sampling view the failure wave left starved below half
    capacity.
    """

    name = "elastic_adjust"
    base_delay = 3
    max_delay = 12

    def apply(self, deployment, alert, round_index, rng):
        moves = deployment.rebalance()
        network = deployment.network
        reseeded = 0
        for node_id in network.alive_ids():
            node = network.node(node_id)
            if not node.has_protocol("peer_sampling"):
                continue
            protocol = node.protocol("peer_sampling")
            if len(protocol.view) < protocol.params.view_size // 2:
                protocol.bootstrap(
                    rng, network.rendezvous, protocol.params.gossip_size
                )
                reseeded += 1
        if moves["roles_moved"] == 0 and reseeded == 0:
            return {"outcome": "noop", "population": moves["population"]}
        return {
            "outcome": "applied",
            "population": moves["population"],
            "roles_moved": moves["roles_moved"],
            "views_reseeded": reseeded,
        }


class TombstonePurge(RemediationAction):
    """Flush dead knowledge in one act: purge offenders, re-seed survivors.

    Uses :func:`~repro.obs.recovery.dead_view_ids` as the targeting
    map — every live node's view entries pointing at dead (or unknown,
    i.e. forged) nodes — purges them with tombstones so stale third-party
    copies cannot resurrect them, then re-seeds any view the purge left
    starved below half capacity with fresh contacts from the rendezvous.
    """

    name = "tombstone_purge"
    base_delay = 3
    max_delay = 12

    def __init__(self, layers: Sequence[str] = DEFAULT_VIEW_LAYERS):
        self.layers = tuple(layers)

    def apply(self, deployment, alert, round_index, rng):
        network = deployment.network
        stale = dead_view_ids(network, self.layers)
        purged = 0
        reseeded = 0
        for node_id in sorted(stale):
            node = network.node(node_id)
            for layer in self.layers:
                view = _view_of(node, layer)
                if view is None:
                    continue
                purged += purge_dead(view, stale[node_id])
                protocol = node.protocol(layer)
                capacity = getattr(
                    getattr(protocol, "params", None), "view_size", view.capacity
                )
                if layer == "peer_sampling" and len(view) < capacity // 2:
                    protocol.bootstrap(
                        rng, network.rendezvous, protocol.params.gossip_size
                    )
                    reseeded += 1
        if purged == 0:
            return {"outcome": "noop"}
        return {
            "outcome": "applied",
            "nodes_affected": len(stale),
            "entries_purged": purged,
            "views_reseeded": reseeded,
        }


def default_actions() -> Dict[str, RemediationAction]:
    """The standard alert-rule → action mapping of the remediation engine.

    Both partition suspicion and stalled convergence map to the rendezvous
    re-seed: a pure view segregation (no physical cut) starves convergence
    without starving UO2's buckets, so the stall rule is the detector that
    actually fires on corrupted-state starts. ``degree_skew`` maps to
    nothing: its incident stays open, unacted, until the alert clears.
    """
    reseed = RendezvousReseed()
    return {
        "partition_suspicion": reseed,
        "stalled_convergence": reseed,
        "churn_spike": ElasticAdjust(),
        "dead_descriptor_buildup": TombstonePurge(),
    }
