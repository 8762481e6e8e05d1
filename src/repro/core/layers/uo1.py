"""UO1 — the same-component utility overlay.

Paper §3.3: the utility overlays are "in charge of assigning nodes to each
component [and] gather nodes from the same component". UO1 is, per component,
a clustered peer-sampling service: each node maintains a small, continuously
mixed random sample *restricted to members of its own component*.

Discovery works in two channels:

- *harvesting*: each round the node scans its global peer-sampling view and
  adopts any same-component peers found there (profiles piggyback on
  peer-sampling descriptors, so this costs no extra messages in the byte
  model — see DESIGN.md);
- *gossip*: a push-pull exchange of view samples with one same-component
  contact, mixing membership knowledge inside the component.

The view doubles as the candidate source of the component's core protocol.
"""

from __future__ import annotations

import heapq
import random
from typing import List, Optional

from repro.core.profiles import NodeProfile
from repro.gossip.descriptors import Descriptor
from repro.gossip.views import PartialView
from repro.sim.config import GossipParams
from repro.sim.engine import RoundContext
from repro.sim.network import Network
from repro.sim.protocol import Protocol
from repro.sim.transport import ExchangeRequest


class SameComponentOverlay(Protocol):
    """One node's UO1 instance.

    Parameters
    ----------
    node_id, profile:
        Identity and current role of the hosting node.
    params:
        View size and gossip buffer size.
    layer:
        Attachment/accounting label (``uo1``).
    random_layer:
        The global peer-sampling layer harvested for same-component peers.
    """

    def __init__(
        self,
        node_id: int,
        profile: NodeProfile,
        params: Optional[GossipParams] = None,
        layer: str = "uo1",
        random_layer: str = "peer_sampling",
        descriptor_ttl: Optional[int] = None,
    ):
        self.node_id = node_id
        self.profile = profile
        self.params = params or GossipParams()
        self.layer = layer
        self.random_layer = random_layer
        # Staleness hygiene: entries a dead member can no longer refresh
        # must age out instead of circulating (see Vicinity.descriptor_ttl).
        self.descriptor_ttl = descriptor_ttl or max(24, 2 * self.params.view_size)
        self.view = PartialView(self.params.view_size)
        self._self_descriptor = Descriptor(node_id, age=0, profile=profile)
        # Pre-resolved (name, layer) counter keys for Instrument.count_key.
        self._k_exchanges = ("exchanges", layer)
        self._k_sent = ("descriptors_sent", layer)
        self._k_received = ("descriptors_received", layer)
        self._k_dead = ("dead_purged", layer)
        self._k_replacements = ("view_replacements", layer)
        self._k_churn = ("descriptor_churn", layer)

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

    # -- protocol interface --------------------------------------------------------

    def neighbors(self) -> List[int]:
        return self.view.ids()

    def forget(self, node_id: int) -> None:
        self.view.remove(node_id)

    def reweight(
        self, healer: Optional[int] = None, swapper: Optional[int] = None
    ) -> GossipParams:
        """Adjust the healer/swapper split of the merge policy in place.

        Same contract as :meth:`repro.gossip.peer_sampling.PeerSampling.reweight`:
        values are clamped so ``healer + swapper <= view_size`` holds and
        the adjusted parameters re-validate on construction.
        """
        self.params = self.params.reweighted(healer, swapper)
        return self.params

    def step(self, ctx: RoundContext) -> None:
        self.view.increase_age()
        self._harvest(ctx)
        if not ctx.exchange_ok():
            return  # this round's exchange was lost
        partner = self._choose_partner(ctx)
        if partner is None:
            return
        if not ctx.transport.deliverable(ctx, partner.node_id, self.layer):
            # Unreachable, not dead: drop without a tombstone.
            self.view.remove(partner.node_id)
            return
        obs = ctx.obs
        flow = obs.flow if obs is not None else None
        buffer = self._make_buffer(ctx, flow)
        reply = ctx.transport.exchange(
            ctx, partner.node_id, ExchangeRequest(self.layer, self.node_id, buffer)
        )
        if reply is None:
            self.view.remove(partner.node_id)
            return
        ctx.transport.record_exchange(self.layer, len(buffer), len(reply))
        if obs is not None:
            obs.count_key(self._k_exchanges)
            obs.count_key(self._k_sent, len(buffer))
            obs.count_key(self._k_received, len(reply))
            if flow is not None:
                reply = flow.on_received(
                    self.layer, ctx.round, self.node_id, partner.node_id, reply
                )
        self._merge(ctx, sent=buffer, received=reply)

    def on_gossip(
        self, ctx: RoundContext, received: List[Descriptor]
    ) -> List[Descriptor]:
        obs = ctx.obs
        flow = obs.flow if obs is not None else None
        reply = self._make_buffer(ctx, flow)
        if obs is not None:
            obs.count_key(self._k_sent, len(reply))
            obs.count_key(self._k_received, len(received))
            if flow is not None:
                # ctx belongs to the active requester — the sender.
                received = flow.on_received(
                    self.layer, ctx.round, self.node_id, ctx.node.node_id, received
                )
        self._merge(ctx, sent=reply, received=received)
        return reply

    def on_request(
        self, ctx: RoundContext, request: ExchangeRequest
    ) -> List[Descriptor]:
        """Transport-seam entry point: delegate to :meth:`on_gossip`."""
        return self.on_gossip(ctx, request.payload)

    # -- internals -------------------------------------------------------------------

    def _harvest(self, ctx: RoundContext) -> None:
        """Adopt same-component peers appearing in the global random view."""
        if not ctx.node.has_protocol(self.random_layer):
            return
        for node_id in ctx.node.protocol(self.random_layer).neighbors():
            if node_id == self.node_id or not ctx.network.is_alive(node_id):
                continue
            if not ctx.transport.reachable(ctx, node_id):
                continue  # harvesting across the cut would leak state
            peer = ctx.network.node(node_id)
            if not peer.has_protocol(self.layer):
                continue
            peer_protocol = peer.protocol(self.layer)
            assert isinstance(peer_protocol, SameComponentOverlay)
            descriptor = peer_protocol.self_descriptor()
            if self._accepts(descriptor):
                self.view.insert(descriptor)

    def _choose_partner(self, ctx: RoundContext) -> Optional[Descriptor]:
        while len(self.view):
            candidate = self.view.oldest()
            if candidate is None:
                break
            if ctx.network.is_alive(candidate.node_id) and self._partner_valid(
                ctx.network, candidate.node_id
            ):
                return candidate
            if ctx.network.is_alive(candidate.node_id):
                # Reassigned to another component — invalid partner, but not
                # dead; no tombstone (it may rejoin this component later).
                self.view.remove(candidate.node_id)
            else:
                # Dead: tombstone against stale resurrection.
                self.view.purge(candidate.node_id)
                if ctx.obs is not None:
                    ctx.obs.count_key(self._k_dead)
        return None

    def _partner_valid(self, network: Network, node_id: int) -> bool:
        """A partner must still run UO1 *for the same component* (it may have
        been reassigned by a reconfiguration since we learned about it)."""
        peer = network.node(node_id)
        if not peer.has_protocol(self.layer):
            return False
        peer_protocol = peer.protocol(self.layer)
        assert isinstance(peer_protocol, SameComponentOverlay)
        return peer_protocol.profile.component == self.profile.component

    def _make_buffer(self, ctx: RoundContext, flow=None) -> List[Descriptor]:
        advert = self.self_descriptor()
        if flow is not None:
            advert = flow.advertise(advert, self.node_id, ctx.round)
        buffer = [advert]
        buffer.extend(self.view.sample(ctx.rng(), self.params.gossip_size - 1))
        return buffer

    def _merge(
        self,
        ctx: RoundContext,
        sent: List[Descriptor],
        received: List[Descriptor],
    ) -> None:
        """Peer-sampling style select: merge, then heal/swap/trim to size."""
        params = self.params
        pool = {
            d.node_id: d for d in self.view if d.age <= self.descriptor_ttl
        }
        for incoming in received:
            if incoming.node_id == self.node_id or not self._accepts(incoming):
                continue
            descriptor = incoming.aged()  # one hop in transit (TTL hygiene)
            if descriptor.age > self.descriptor_ttl:
                continue
            current = pool.get(descriptor.node_id)
            if current is None or descriptor.age < current.age:
                pool[descriptor.node_id] = descriptor

        def excess() -> int:
            return len(pool) - params.view_size

        if excess() > 0 and params.healer > 0:
            # nsmallest == sorted[:k] (same key, same ties) in O(n log k);
            # the healer wave only ever needs the H oldest entries.
            doomed = heapq.nsmallest(
                min(params.healer, excess()),
                pool.values(),
                key=lambda d: (-d.age, d.node_id),
            )
            for descriptor in doomed:
                del pool[descriptor.node_id]
        if excess() > 0 and params.swapper > 0:
            swaps = min(params.swapper, excess())
            for descriptor in sent:
                if swaps <= 0:
                    break
                if descriptor.node_id == self.node_id:
                    continue
                if pool.pop(descriptor.node_id, None) is not None:
                    swaps -= 1
        rng = ctx.rng()
        while excess() > 0:
            victim = rng.choice(list(pool.keys()))
            del pool[victim]
        if ctx.obs is not None:
            entering = len(pool.keys() - self.view.id_set())
            ctx.obs.count_key(self._k_replacements)
            ctx.obs.count_key(self._k_churn, entering)
        self.view.replace(pool.values())
