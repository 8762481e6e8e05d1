"""UO2 — the distant-component utility overlay.

Paper §3.3: the second utility overlay maintains "'long distance' connections
between nodes from different components (for performance issues)". Each node
keeps a small bucket of contacts *per foreign component*; the buckets are
filled by harvesting the global random view and by gossiping contact tables
with both same-component neighbours (spreading knowledge inside the
component) and foreign contacts (bridging components).

These long-distance contacts are what the port-connection layer routes over
to realize links, and what applications can use for inter-component traffic.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.core.profiles import NodeProfile
from repro.gossip.descriptors import Descriptor
from repro.gossip.views import PartialView
from repro.sim.engine import RoundContext
from repro.sim.protocol import GossipProtocol


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
    layer, random_layer, uo1_layer:
        Attachment labels of this protocol, the global peer sampling, and
        the same-component overlay used to pick intra-component partners.
    """

    def __init__(
        self,
        node_id: int,
        profile: NodeProfile,
        contacts_per_component: int = 2,
        gossip_contacts: int = 8,
        layer: str = "uo2",
        random_layer: str = "peer_sampling",
        uo1_layer: str = "uo1",
    ):
        super().__init__(node_id, layer)
        self.profile = profile
        self.capacity = max(1, contacts_per_component)
        self.gossip_contacts = max(1, gossip_contacts)
        self.random_layer = random_layer
        self.uo1_layer = uo1_layer
        self.buckets: Dict[str, PartialView] = {}
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
        return sorted(bucket.descriptors(), key=lambda d: (d.age, d.node_id))

    def known_components(self) -> List[str]:
        return sorted(name for name, bucket in self.buckets.items() if len(bucket))

    def neighbors(self) -> List[int]:
        ids: List[int] = []
        for bucket in self.buckets.values():
            ids.extend(bucket.ids())
        return ids

    def forget(self, node_id: int) -> None:
        for bucket in self.buckets.values():
            bucket.remove(node_id)

    # -- internals -----------------------------------------------------------------------

    def _begin_round(self, ctx: RoundContext) -> bool:
        """Age every bucket, then adopt foreign-component peers seen in the
        global random view."""
        for bucket in self.buckets.values():
            bucket.increase_age()
        for advert in self._peer_adverts(ctx, self.random_layer):
            self._insert(advert)
        return True

    def _insert(self, descriptor: Descriptor) -> bool:
        """Adopt a foreign-component contact; returns whether a bucket changed."""
        profile = descriptor.profile
        if not isinstance(profile, NodeProfile):
            return False
        if descriptor.node_id == self.node_id:
            return False
        if profile.component == self.profile.component:
            return False  # own component is UO1's job
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
        candidates: List[int] = []
        if ctx.round % 2 == 0 and ctx.node.has_protocol(self.uo1_layer):
            candidates = [
                node_id
                for node_id in ctx.node.protocol(self.uo1_layer).neighbors()
                if ctx.network.is_alive(node_id)
            ]
        if not candidates:
            candidates = [
                descriptor.node_id
                for bucket in self.buckets.values()
                for descriptor in bucket
                if ctx.network.is_alive(descriptor.node_id)
            ]
        candidates = [
            node_id
            for node_id in candidates
            if ctx.network.node(node_id).has_protocol(self.layer)
        ]
        if not candidates:
            return None
        return rng.choice(candidates)

    def _bucket_heads(self, component: str, limit: int) -> List[Descriptor]:
        """The ``limit`` youngest contacts of one bucket, in contacts() order.

        nsmallest == sorted[:k] (same key, same ties) in O(n log k); the
        round-robin below never consumes more than ``limit`` entries from a
        single bucket, so the tail of the full ranking is never needed.
        """
        bucket = self.buckets.get(component)
        if bucket is None:
            return []
        return heapq.nsmallest(
            limit, bucket.descriptors(), key=lambda d: (d.age, d.node_id)
        )

    def _offer(self, ctx: RoundContext, flow, peer_id, request):
        """Self plus the youngest contact of each known component, round-robin
        until the message budget is reached.

        The round-robin starts where the previous round's window ended (and
        at a different component on every node): with more known components
        than budget slots, a fixed start would gossip the same few names
        forever and leave the rest to the peer-sampling harvest alone.
        """
        advert = self._self_descriptor
        if flow is not None:
            advert = flow.advertise(advert, self.node_id, ctx.round)
        buffer = [advert]
        limit = self.gossip_contacts - 1
        names = self.known_components()
        if names:
            start = (ctx.round * limit + self.node_id) % len(names)
            names = names[start:] + names[:start]
        per_component = [self._bucket_heads(name, limit) for name in names]
        depth = 0
        while len(buffer) < self.gossip_contacts:
            added = False
            for contacts in per_component:
                if depth < len(contacts) and len(buffer) < self.gossip_contacts:
                    buffer.append(contacts[depth])
                    added = True
            if not added:
                break
            depth += 1
        return buffer, None

    def _absorb(self, ctx: RoundContext, _kept, received: List[Descriptor]) -> None:
        adopted = 0
        for descriptor in received:
            # One hop in transit: stale contacts of dead nodes age out of
            # the buckets instead of bouncing at age 0 (see Vicinity).
            adopted += self._insert(descriptor.aged())
        if ctx.obs is not None and adopted:
            ctx.obs.count_key(self._k_churn, adopted)
