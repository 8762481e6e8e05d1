"""UO2 — the distant-component utility overlay.

Paper §3.3: the second utility overlay maintains "'long distance' connections
between nodes from different components (for performance issues)". Each node
keeps a small bucket of contacts *per foreign component*; the buckets are
filled by harvesting the global random view and by gossiping contact tables
with both same-component neighbours (spreading knowledge inside the
component) and foreign contacts (bridging components). What that gossip
brings in about the node's *own* component is handed to UO1 on the same node,
and every buffer carries a contact from the partner's component — every one
held, when that component is small enough for a UO1 view to list it whole —
for the same purpose.

These long-distance contacts are what the port-connection layer routes over
to realize links, and what applications can use for inter-component traffic.
"""

from __future__ import annotations

from itertools import zip_longest
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.core.layers import LAYER_UO1
from repro.core.profiles import NodeProfile
from repro.gossip.descriptors import Descriptor
from repro.gossip.views import PartialView
from repro.sim.engine import RoundContext
from repro.sim.protocol import GossipProtocol


#: contacts() order: youngest first, ties on the lower node id.
_YOUNGEST_FIRST = attrgetter("age", "node_id")


class DistantComponentOverlay(GossipProtocol):
    """One node's UO2 instance.

    Parameters
    ----------
    node_id, profile:
        Identity and current role of the hosting node.
    contacts_per_component:
        Bucket capacity per foreign component.
    gossip_contacts:
        Maximum descriptors shipped per gossip message.
    layer, random_layer:
        Attachment labels of this protocol and the global peer sampling
        (intra-component partners come from the node's UO1 layer).
    """

    def __init__(
        self,
        node_id: int,
        profile: NodeProfile,
        contacts_per_component: int = 2,
        gossip_contacts: int = 8,
        layer: str = "uo2",
        random_layer: str = "peer_sampling",
    ):
        super().__init__(node_id, layer)
        self.profile = profile
        self.capacity = max(1, contacts_per_component)
        self.gossip_contacts = max(1, gossip_contacts)
        self.random_layer = random_layer
        self.buckets: Dict[str, PartialView] = {}
        # The bucket this round's partner was drawn from (None: a member of
        # the node's own component), noted by the partner rule for the offer.
        self._partner_component: Optional[str] = None
        # The sorted component names the active offer just computed, left
        # for the request's have-digest (``step`` reads it straight after).
        self._offered_known: Optional[List[str]] = None
        self._self_descriptor = Descriptor(node_id, age=0, profile=profile)

    # -- identity -----------------------------------------------------------------

    def self_descriptor(self) -> Descriptor:
        return self._self_descriptor

    def set_profile(self, profile: NodeProfile) -> None:
        """Adopt a new role; the old component's bucket becomes foreign and a
        bucket for the new own component is dropped."""
        self.profile = profile
        self._self_descriptor = Descriptor(self.node_id, age=0, profile=profile)
        self.buckets.pop(profile.component, None)

    # -- queries -------------------------------------------------------------------

    def contacts(self, component: str) -> List[Descriptor]:
        """Known live-ish contacts in ``component`` (youngest first)."""
        bucket = self.buckets.get(component)
        if bucket is None:
            return []
        contacts = bucket.descriptors()
        contacts.sort(key=_YOUNGEST_FIRST)
        return contacts

    def known_components(self) -> List[str]:
        return sorted(name for name, bucket in self.buckets.items() if bucket.id_set())

    def neighbors(self) -> List[int]:
        ids: List[int] = []
        for bucket in self.buckets.values():
            ids.extend(bucket.ids())
        return ids

    def forget(self, node_id: int) -> None:
        for bucket in self.buckets.values():
            bucket.remove(node_id)

    wire_profile_is_digest = True

    @property
    def wire_profile(self) -> Tuple[str, ...]:
        """The have-digest shipped with every request: the components this
        node holds a contact in. The partner's reply serves the others first
        (see :meth:`_offer`). Built after the partner rule's scan, so it
        never vouches for a component whose contacts are all dead. Takes
        the names the active offer left behind, once; any other read ranks
        the buckets afresh."""
        known, self._offered_known = self._offered_known, None
        return tuple(self.known_components() if known is None else known)

    # -- internals -----------------------------------------------------------------------

    def _uo1(self):
        """The same-component overlay on *this* node, if it runs one.

        Read on :attr:`node`: the passive half runs under the requester's
        context.
        """
        return self.node.find(LAYER_UO1)

    def _begin_round(self, ctx: RoundContext) -> bool:
        """Age every bucket, then adopt the peers seen in the global random
        view."""
        for bucket in self.buckets.values():
            bucket.increase_age()
        uo1 = self._uo1()
        for advert in self._peer_adverts(ctx, self.random_layer):
            self._insert(advert, uo1)
        return True

    def _insert(self, descriptor: Descriptor, uo1) -> bool:
        """File one sighting where it belongs — a foreign contact in its
        component's bucket, a member of this node's own component with the
        sibling UO1 (under UO1's rules); returns whether either changed."""
        profile = descriptor.profile
        if not isinstance(profile, NodeProfile):
            return False
        if descriptor.node_id == self.node_id:
            return False
        if profile.component == self.profile.component:
            return uo1 is not None and uo1.adopt(descriptor)
        bucket = self.buckets.get(profile.component)
        if bucket is None:
            bucket = PartialView(self.capacity)
            self.buckets[profile.component] = bucket
        return bucket.insert(descriptor)

    def _choose_partner(self, ctx: RoundContext) -> Optional[int]:
        """Alternate between a same-component partner (spread foreign contact
        knowledge inside the component) and a foreign contact (refresh and
        extend cross-component knowledge)."""
        rng = ctx.rng()
        peers = ctx.peers
        # Every round, whichever turn it is: a failed probe purges the
        # contact (tombstoned and counted, as ``_oldest_live`` does), so a
        # bucket of corpses empties and its component leaves the digest. An
        # id-only scan otherwise: no live bucket is settled to be looked at.
        foreign: Dict[int, str] = {}
        for name, bucket in self.buckets.items():
            for node_id in bucket.ids():
                if peers.is_alive(node_id):
                    foreign[node_id] = name
                else:
                    bucket.purge(node_id)
                    if ctx.obs is not None:
                        ctx.obs.count_key(self._k_dead)
        candidates: List[int] = []
        drawn_from: Dict[int, str] = {}
        if ctx.round % 2 == 0 and ctx.node.has_protocol(LAYER_UO1):
            candidates = [
                node_id
                for node_id in ctx.node.protocol(LAYER_UO1).neighbors()
                if peers.is_alive(node_id)
            ]
        if not candidates:
            candidates, drawn_from = list(foreign), foreign
        candidates = [
            node_id for node_id in candidates if peers.runs(node_id, self.layer)
        ]
        if not candidates:
            return None
        partner = rng.choice(candidates)
        self._partner_component = drawn_from.get(partner)
        return partner

    def _offer(self, ctx: RoundContext, flow, peer_id, request):
        """Self, what is held of the partner's own component, then the
        youngest contact of each other known component, round-robin until
        the message budget is reached.

        The partner hands its own component's contacts to its UO1 (see
        :meth:`_insert`): ring-mates it may not know yet. A component its
        UO1 lists whole — read off the contact's own ``comp_size`` — gets
        every contact held there, any other the youngest alone: a sampler
        is fed one sighting, a member list all of them. A reply leaves
        out the components the requester demonstrably has — those it just
        shipped contacts of and those its have-digest lists — unless nothing
        else is known: the budget goes to what the requester lacks.

        The round-robin starts where the previous round's window ended (and
        at a different component on every node): with more known components
        than budget slots, a fixed start would gossip the same few names
        forever and leave the rest to the peer-sampling harvest alone.
        """
        advert = self._self_descriptor
        if flow is not None:
            advert = advert.tagged(ctx.round)
        slots = self.gossip_contacts - 1
        known = self.known_components()
        if request is None:
            self._offered_known = known
        if not (slots and known):
            return [advert], None
        if request is None:
            theirs = self._partner_component
            skip = {theirs}
        else:
            # The requester's advert leads its buffer; the rest is what it
            # shipped (at most ``gossip_contacts - 1`` descriptors).
            components = [
                getattr(d.profile, "component", None) for d in request.payload
            ]
            theirs = components[0] if components else None
            skip = {*components, *(request.profile or ())}
        # No bucket for ``theirs`` (unknown, or the node's own component):
        # ``contacts`` is empty and the whole budget goes to the rotation.
        mates = [c for c in self.contacts(theirs) if c.node_id != peer_id]
        if len(mates) > 1:
            # The sibling UO1 says what a view lists whole: the partner's
            # runs the same rule.
            uo1 = self._uo1()
            if uo1 is None or not uo1.holds_whole(mates[0].profile):
                del mates[1:]
        buffer = [advert, *mates[:slots]]
        slots -= len(buffer) - 1
        names = [name for name in known if name not in skip] or [
            name for name in known if name != theirs
        ]
        if not (slots and names):
            return buffer, None
        start = (ctx.round * slots + self.node_id) % len(names)
        # Every known bucket is non-empty, so the first pass alone takes one
        # contact from each of the first ``slots`` buckets after ``start``:
        # the round-robin can never reach past that window, and only the
        # buckets inside it are settled and ranked.
        window = (names[start:] + names[:start])[:slots]
        passes = zip_longest(*map(self.contacts, window))
        shipped = [c for one_pass in passes for c in one_pass if c is not None]
        return [*buffer, *shipped[:slots]], None

    def _absorb(self, ctx: RoundContext, _kept, received: List[Descriptor]) -> None:
        uo1 = self._uo1()
        adopted = 0
        for descriptor in received:
            # One hop in transit: stale contacts of dead nodes age out of
            # the buckets instead of bouncing at age 0 (see Vicinity).
            adopted += self._insert(descriptor.aged(), uo1)
        if ctx.obs is not None and adopted:
            ctx.obs.count_key(self._k_churn, adopted)
