"""Cyclon — the enhanced shuffle protocol (Voulgaris, Gavidia & van Steen).

An alternative random-overlay protocol, provided for peer-sampling ablations:
instead of the H/S framework trimming, Cyclon performs a strict *swap* of
view slices, which gives in-degree distributions very close to uniform.
"""

from __future__ import annotations

from typing import List, Optional

from repro.gossip.descriptors import Descriptor
from repro.gossip.views import PartialView
from repro.sim.config import GossipParams
from repro.sim.engine import RoundContext
from repro.sim.protocol import GossipProtocol


class Cyclon(GossipProtocol):
    """One node's instance of the Cyclon shuffle.

    Each round the node removes its *oldest* neighbour from the view, sends
    it a random slice (plus its own fresh descriptor), and integrates the
    slice received in return, preferring empty slots and the slots of the
    entries it just shipped.
    """

    def __init__(
        self,
        node_id: int,
        params: Optional[GossipParams] = None,
        layer: str = "cyclon",
    ):
        super().__init__(node_id, layer)
        self.params = params or GossipParams()
        self.view = PartialView(self.params.view_size)
        self._self_descriptor = Descriptor(node_id, age=0, profile=None)

    def self_descriptor(self) -> Descriptor:
        return self._self_descriptor

    def neighbors(self) -> List[int]:
        return self.view.ids()

    def forget(self, node_id: int) -> None:
        self.view.remove(node_id)

    # -- internals ---------------------------------------------------------------

    def _choose_partner(self, ctx: RoundContext) -> Optional[int]:
        """The oldest live neighbour, or a random live node into an empty view."""
        partner = self._oldest_live(ctx)
        if partner is not None:
            return partner.node_id
        node = ctx.network.random_alive(ctx.rng(), exclude=self.node_id)
        if node is None or not node.has_protocol(self.layer):
            return None
        self.view.insert(Descriptor(node.node_id, age=0, profile=None))
        return node.node_id

    def _offer(self, ctx: RoundContext, flow, peer_id, request):
        """A random slice of the view; the initiator adds itself to it."""
        if request is not None:
            shuffle = self.view.sample(ctx.rng(), self.params.gossip_size)
        else:
            # The shuffle removes the partner from the view before sending
            # (so a partner that then proves unreachable is already gone).
            self.view.remove(peer_id)
            shuffle = [self._self_descriptor]
            shuffle.extend(self.view.sample(ctx.rng(), self.params.gossip_size - 1))
        return shuffle, shuffle

    def _absorb(
        self, ctx: RoundContext, sent: List[Descriptor], received: List[Descriptor]
    ) -> None:
        """Fill empty slots first, then reuse the slots of shipped entries."""
        sent_ids = [d.node_id for d in sent if d.node_id != self.node_id]
        for descriptor in received:
            if descriptor.node_id == self.node_id:
                continue
            if descriptor.node_id in self.view:
                continue  # already known, keep the resident entry
            if not self.view.is_full():
                self.view.insert(descriptor)
                continue
            replaced = False
            while sent_ids:
                victim = sent_ids.pop()
                if self.view.remove(victim):
                    self.view.insert(descriptor)
                    replaced = True
                    break
            if not replaced:
                break  # view full and nothing left to swap out
