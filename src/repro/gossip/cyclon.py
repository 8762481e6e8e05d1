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
from repro.sim.protocol import Protocol
from repro.sim.transport import ExchangeRequest


class Cyclon(Protocol):
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
        self.node_id = node_id
        self.params = params or GossipParams()
        self.layer = layer
        self.view = PartialView(self.params.view_size)

    def self_descriptor(self) -> Descriptor:
        return Descriptor(self.node_id, age=0, profile=None)

    def neighbors(self) -> List[int]:
        return self.view.ids()

    def forget(self, node_id: int) -> None:
        self.view.remove(node_id)

    def step(self, ctx: RoundContext) -> None:
        self.view.increase_age()
        if not ctx.exchange_ok():
            return  # this round's shuffle was lost
        partner = self._oldest_live(ctx)
        if partner is None:
            return
        if not ctx.transport.deliverable(ctx, partner.node_id, self.layer):
            # Unreachable, not dead: drop without a tombstone.
            self.view.remove(partner.node_id)
            return
        # The shuffle removes the partner from the view before sending.
        self.view.remove(partner.node_id)
        shuffle_out = [self.self_descriptor()]
        shuffle_out.extend(self.view.sample(ctx.rng(), self.params.gossip_size - 1))
        shuffle_in = ctx.transport.exchange(
            ctx,
            partner.node_id,
            ExchangeRequest(self.layer, self.node_id, shuffle_out),
        )
        if shuffle_in is None:
            return  # the partner is already out of the view
        ctx.transport.record_exchange(self.layer, len(shuffle_out), len(shuffle_in))
        self._integrate(shuffle_in, sent=shuffle_out)

    def on_shuffle(
        self, ctx: RoundContext, received: List[Descriptor]
    ) -> List[Descriptor]:
        reply = self.view.sample(ctx.rng(), self.params.gossip_size)
        self._integrate(received, sent=reply)
        return reply

    def on_request(
        self, ctx: RoundContext, request: "ExchangeRequest"
    ) -> List[Descriptor]:
        """Transport-seam entry point: delegate to :meth:`on_shuffle`."""
        return self.on_shuffle(ctx, request.payload)

    # -- internals ---------------------------------------------------------------

    def _oldest_live(self, ctx: RoundContext) -> Optional[Descriptor]:
        while len(self.view):
            candidate = self.view.oldest()
            if candidate is None:
                break
            if ctx.network.is_alive(candidate.node_id):
                return candidate
            # Dead (not merely unreachable): tombstone against resurrection.
            self.view.purge(candidate.node_id)
        node = ctx.network.random_alive(ctx.rng(), exclude=self.node_id)
        if node is None or not node.has_protocol(self.layer):
            return None
        descriptor = Descriptor(node.node_id, age=0, profile=None)
        self.view.insert(descriptor)
        return descriptor

    def _integrate(self, received: List[Descriptor], sent: List[Descriptor]) -> None:
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
