"""UO1 — the same-component utility overlay.

Paper §3.3: the utility overlays are "in charge of assigning nodes to each
component [and] gather nodes from the same component". UO1 is, per component,
a clustered peer-sampling service: each node maintains a small, continuously
mixed random sample *restricted to members of its own component*.

Discovery works in four channels:

- *harvesting*: each round the node scans its global peer-sampling view and
  adopts any same-component peers found there (profiles piggyback on
  peer-sampling descriptors, so this costs no extra messages in the byte
  model — see DESIGN.md);
- *handover*: UO2 on the same node passes on every descriptor of this
  component that its own gossip brings in (:meth:`SameComponentOverlay.adopt`,
  as the harvest does) — and, where the whole component fits the view
  (:meth:`SameComponentOverlay.holds_whole`), so does the core protocol
  (:meth:`SameComponentOverlay.gather`);
- *gossip*: a push-pull exchange of view samples with one same-component
  contact, mixing membership knowledge inside the component.

The view doubles as the candidate source — and, while the core view is
empty, the partner source — of the component's core protocol.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

from repro.core.profiles import NodeProfile
from repro.gossip.descriptors import Descriptor
from repro.gossip.peer_sampling import select_view
from repro.gossip.views import PartialView
from repro.sim.config import GossipParams
from repro.sim.engine import RoundContext
from repro.sim.protocol import GossipProtocol


class SameComponentOverlay(GossipProtocol):
    """One node's UO1 instance.

    Parameters
    ----------
    node_id, profile:
        Identity and current role of the hosting node.
    params:
        View size and gossip buffer size.
    layer:
        Attachment/accounting label (``uo1``).
    """

    #: The global peer-sampling layer harvested for same-component peers.
    random_layer = "peer_sampling"

    def __init__(
        self,
        node_id: int,
        profile: NodeProfile,
        params: Optional[GossipParams] = None,
        layer: str = "uo1",
    ):
        super().__init__(node_id, layer)
        self.profile = profile
        self.params = params or GossipParams()
        # Staleness hygiene: entries a dead member can no longer refresh
        # must age out instead of circulating (see Vicinity.descriptor_ttl).
        self.descriptor_ttl = max(24, 2 * self.params.view_size)
        self.view = PartialView(self.params.view_size)
        self._self_descriptor = Descriptor(node_id, age=0, profile=profile)

    # -- identity ---------------------------------------------------------------

    def self_descriptor(self) -> Descriptor:
        return self._self_descriptor

    def set_profile(self, profile: NodeProfile) -> None:
        """Adopt a new role; stale other-component entries are dropped."""
        self.profile = profile
        self._self_descriptor = Descriptor(self.node_id, age=0, profile=profile)
        self.view.discard_where(lambda d: not self._accepts(d))

    def _accepts(self, descriptor: Descriptor) -> bool:
        return (
            isinstance(descriptor.profile, NodeProfile)
            and descriptor.profile.component == self.profile.component
        )

    def adopt(self, descriptor: Descriptor) -> bool:
        """Take in one sighting of a member of this component; returns
        whether the view changed.

        The way in for knowledge that did not arrive through UO1's own
        gossip: the peer-sampling harvest, and the own-component
        descriptors UO2 receives on this node. The same rules apply as to
        a gossiped entry — this component only, never self, not past the
        TTL, and a tombstoned id only at age 0 (the view's own rule).
        """
        if (
            descriptor.node_id == self.node_id
            or descriptor.age > self.descriptor_ttl
            or not self._accepts(descriptor)
        ):
            return False
        return self.view.insert(descriptor)

    def holds_whole(self, profile: NodeProfile) -> bool:
        """Whether a UO1 view can list every other member of the component
        ``profile`` names — the regime the layer works in there.

        The legality predicate asks a view for ``min(view_size, n - 1)``
        members (:func:`repro.core.convergence.uo1_converged`), which is two
        jobs: a *sampler* of a component that outgrows the view, where which
        members are held must stay unbiased, and a *member list* of one that
        fits, where every member is wanted and a sighting from any source
        is progress. Read from the role, not from the view's fill level: a
        big component's view fills slowly, so a fill-level gate would stay
        open exactly where a biased source does harm.
        """
        return profile.comp_size - 1 <= self.params.view_size

    def gather(self, sightings: Iterable[Descriptor]) -> None:
        """Take what a sibling layer's exchange brought in on this node —
        the core's, whose partners are members of this component.

        Only as a member list (:meth:`holds_whole`): to a sampler the core's
        partners are a neighbour-biased source. Through :meth:`adopt`, and an
        id already held is passed over, so a settled view costs a probe.
        """
        if not self.holds_whole(self.profile):
            return
        held = self.view.id_set()
        for descriptor in sightings:
            if descriptor.node_id not in held:
                self.adopt(descriptor)

    # -- protocol interface --------------------------------------------------------

    def neighbors(self) -> List[int]:
        return self.view.ids()

    def forget(self, node_id: int) -> None:
        self.view.remove(node_id)

    wire_profile_is_digest = True

    @property
    def wire_profile(self) -> Tuple[int, ...]:
        """The have-digest shipped with every request: the ids in this
        node's view. The partner's reply leaves them out (see
        :meth:`_offer`)."""
        return tuple(self.view.ids())

    # -- internals -------------------------------------------------------------------

    def _begin_round(self, ctx: RoundContext) -> bool:
        """Age, then adopt same-component peers seen in the global random view."""
        self.view.increase_age()
        for advert in self._peer_adverts(ctx, self.random_layer):
            self.adopt(advert)
        return True

    def _choose_partner(self, ctx: RoundContext) -> Optional[int]:
        """The oldest live entry still in this component (a member
        reassigned elsewhere is dropped without a tombstone: it is not
        dead, and may rejoin this component later)."""
        partner = self._oldest_live(ctx, valid=self._partner_valid)
        return partner.node_id if partner is not None else None

    def _partner_valid(self, peers: Any, node_id: int) -> bool:
        """A partner must still run UO1 *for the same component* (it may have
        been reassigned by a reconfiguration since we learned about it)."""
        profile = peers.profile(node_id, self.layer)
        return profile is not None and profile.component == self.profile.component

    def _offer(self, ctx: RoundContext, flow, peer_id, request):
        """Own fresh descriptor plus a random slice of the view — on a
        reply, of the part of the view the requester lacks: neither itself
        nor an id its have-digest lists. The stream is drawn from only when
        that part exceeds the budget."""
        advert = self._self_descriptor
        if flow is not None:
            advert = advert.tagged(ctx.round)
        lacking = self.view.descriptors()
        if request is not None and request.profile:
            have = {peer_id, *request.profile}
            lacking = [d for d in lacking if d.node_id not in have]
        budget = self.params.gossip_size - 1
        if len(lacking) > budget:
            lacking = ctx.rng().sample(lacking, budget)
        buffer = [advert, *lacking]
        return buffer, buffer

    def _absorb(
        self,
        ctx: RoundContext,
        sent: List[Descriptor],
        received: List[Descriptor],
    ) -> None:
        """Peer-sampling select over the accepted, unexpired candidates."""
        ttl = self.descriptor_ttl
        # Received entries age one hop in transit (TTL hygiene).
        arrived = [
            d.aged()
            for d in received
            if d.age < ttl and d.node_id != self.node_id and self._accepts(d)
        ]
        pool = select_view(
            self.node_id,
            {d.node_id: d for d in self.view if d.age <= ttl},
            sent,
            arrived,
            self.params,
            ctx.rng(),
        )
        if ctx.obs is not None:
            entering = len(pool.keys() - self.view.id_set())
            ctx.obs.count_key(self._k_replacements)
            ctx.obs.count_key(self._k_churn, entering)
        self.view.replace(pool.values())
