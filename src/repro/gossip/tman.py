"""T-Man — gossip-based fast overlay topology construction.

Implements Jelasity, Montresor & Babaoglu (Computer Networks 2009). T-Man is
the second topology-construction protocol the paper cites; we provide it as
an alternative core protocol for the shape components (ablation A4 in
DESIGN.md). Differences from Vicinity:

- the gossip partner is drawn uniformly from the ψ (``psi``) entries ranked
  closest to the node, not from the tail of the view;
- the exchanged buffer contains the ``m`` entries of the merged
  (view ∪ random-view ∪ self) set ranked closest *to the partner*;
- the view is unbounded in the original paper; we keep the bounded-view
  variant (also evaluated there) for memory parity with Vicinity.
"""

from __future__ import annotations

from typing import List, Optional

from repro.gossip.descriptors import Descriptor
from repro.gossip.selection import Profile, Proximity, select_closest
from repro.gossip.views import PartialView
from repro.perf.cache import DistanceCache
from repro.sim.config import GossipParams
from repro.sim.engine import RoundContext
from repro.sim.protocol import Protocol
from repro.sim.transport import ExchangeRequest


class TMan(Protocol):
    """One node's instance of a T-Man overlay.

    Parameters mirror :class:`~repro.gossip.vicinity.Vicinity`, plus ``psi``,
    the size of the closest-peers pool the gossip partner is drawn from.
    """

    def __init__(
        self,
        node_id: int,
        profile: Profile,
        proximity: Proximity,
        params: Optional[GossipParams] = None,
        layer: str = "tman",
        random_layer: Optional[str] = "peer_sampling",
        psi: int = 3,
        target_degree: Optional[int] = None,
        descriptor_ttl: Optional[int] = None,
    ):
        self.node_id = node_id
        self.profile = profile
        self.proximity = proximity
        self.params = params or GossipParams()
        self.layer = layer
        self.random_layer = random_layer
        self.psi = max(1, psi)
        self.target_degree = target_degree or self.params.view_size
        # Same staleness hygiene as Vicinity (see its docstring): a dead
        # node's descriptors must age out rather than circulate forever.
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
        # Memoized self-referenced distances (see Vicinity: ranking-function
        # evaluation dominates the round; the reference changes only on
        # reconfiguration).
        self._distances = DistanceCache(proximity, profile)

    def self_descriptor(self) -> Descriptor:
        return self._self_descriptor

    def set_profile(self, profile: Profile) -> None:
        self.profile = profile
        self._self_descriptor = Descriptor(self.node_id, age=0, profile=profile)
        self._distances.rebind(profile)
        self.view.discard_where(
            lambda d: not self.proximity.eligible(profile, d.profile)
        )

    def neighbors(self) -> List[int]:
        # Batch distance evaluation on columnar views (see Vicinity.neighbors).
        best = self.view.closest_to(self.target_degree, self._distances)
        return [descriptor.node_id for descriptor in best]

    def forget(self, node_id: int) -> None:
        self.view.remove(node_id)

    # -- gossip ------------------------------------------------------------------

    def step(self, ctx: RoundContext) -> None:
        self.view.increase_age()
        if not ctx.exchange_ok():
            return  # this round's exchange was lost
        partner = self._select_peer(ctx)
        if partner is None:
            return
        if not ctx.transport.deliverable(ctx, partner.node_id, self.layer):
            # Unreachable, not dead: drop without a tombstone.
            self.view.remove(partner.node_id)
            return
        obs = ctx.obs
        flow = obs.flow if obs is not None else None
        buffer = self._buffer_for(ctx, partner.profile, partner.node_id, flow)
        reply = ctx.transport.exchange(
            ctx,
            partner.node_id,
            ExchangeRequest(self.layer, self.node_id, buffer, profile=self.profile),
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
        self._merge(ctx, reply)

    def on_gossip(
        self,
        ctx: RoundContext,
        requester_profile: Profile,
        requester_id: int,
        received: List[Descriptor],
    ) -> List[Descriptor]:
        obs = ctx.obs
        flow = obs.flow if obs is not None else None
        reply = self._buffer_for(ctx, requester_profile, requester_id, flow)
        if obs is not None:
            obs.count_key(self._k_sent, len(reply))
            obs.count_key(self._k_received, len(received))
            if flow is not None:
                received = flow.on_received(
                    self.layer, ctx.round, self.node_id, requester_id, received
                )
        self._merge(ctx, received)
        return reply

    def on_request(
        self, ctx: RoundContext, request: ExchangeRequest
    ) -> List[Descriptor]:
        """Transport-seam entry point: delegate to :meth:`on_gossip`."""
        return self.on_gossip(ctx, request.profile, request.sender, request.payload)

    # -- internals ----------------------------------------------------------------

    def _select_peer(self, ctx: RoundContext) -> Optional[Descriptor]:
        """Uniform draw from the ψ closest live view entries."""
        while len(self.view):
            ranked = self.view.closest_to(self.psi, self._distances)
            live = [d for d in ranked if ctx.network.is_alive(d.node_id)]
            if live:
                return ctx.rng().choice(live)
            for descriptor in ranked:
                # Dead peers get tombstones against stale resurrection.
                self.view.purge(descriptor.node_id)
                if ctx.obs is not None:
                    ctx.obs.count_key(self._k_dead)
        return self._random_peer(ctx)

    def _own_node(self, ctx: RoundContext):
        # Not ctx.node: in passive on_gossip the context is the requester's.
        return ctx.network.node(self.node_id)

    def _random_peer(self, ctx: RoundContext) -> Optional[Descriptor]:
        own = self._own_node(ctx)
        if self.random_layer is None or not own.has_protocol(self.random_layer):
            return None
        candidates = []
        for node_id in own.protocol(self.random_layer).neighbors():
            if node_id == self.node_id or not ctx.network.is_alive(node_id):
                continue
            if not ctx.transport.reachable(ctx, node_id):
                continue  # behind an active partition cut
            peer = ctx.network.node(node_id)
            if not peer.has_protocol(self.layer):
                continue
            peer_protocol = peer.protocol(self.layer)
            assert isinstance(peer_protocol, TMan)
            if self.proximity.eligible(self.profile, peer_protocol.profile):
                candidates.append(peer_protocol.self_descriptor())
        if not candidates:
            return None
        return ctx.rng().choice(candidates)

    def _candidate_pool(self, ctx: RoundContext) -> List[Descriptor]:
        own = self._own_node(ctx)
        pool = self.view.descriptors()
        if self.random_layer is not None and own.has_protocol(self.random_layer):
            for node_id in own.protocol(self.random_layer).neighbors():
                if node_id == self.node_id or not ctx.network.is_alive(node_id):
                    continue
                if not ctx.transport.reachable(ctx, node_id):
                    continue  # peeking state across the cut would leak it
                peer = ctx.network.node(node_id)
                if not peer.has_protocol(self.layer):
                    continue
                peer_protocol = peer.protocol(self.layer)
                assert isinstance(peer_protocol, TMan)
                pool.append(peer_protocol.self_descriptor())
        return pool

    def _fresh(self, descriptors: List[Descriptor]) -> List[Descriptor]:
        return [d for d in descriptors if d.age <= self.descriptor_ttl]

    def _buffer_for(
        self, ctx: RoundContext, reference: Profile, recipient_id: int, flow=None
    ) -> List[Descriptor]:
        pool = self._fresh(self._candidate_pool(ctx))
        advert = self.self_descriptor()
        if flow is not None:
            advert = flow.advertise(advert, self.node_id, ctx.round)
        pool.append(advert)
        return select_closest(
            pool,
            reference,
            self._distances,
            self.params.gossip_size,
            exclude_id=recipient_id,
        )

    def _merge(self, ctx: RoundContext, received: List[Descriptor]) -> None:
        # T-Man's update: view ← best of (view ∪ buffer ∪ random view).
        # Received entries age one hop in transit (see Vicinity._merge_pool).
        pool = self._candidate_pool(ctx)
        pool.extend(d.aged() for d in received)
        best = select_closest(
            self._fresh(pool),
            self.profile,
            self._distances,
            self.params.view_size,
            exclude_id=self.node_id,
        )
        if ctx.obs is not None:
            ids = self.view.id_set()
            entering = sum(1 for d in best if d.node_id not in ids)
            ctx.obs.count_key(self._k_replacements)
            ctx.obs.count_key(self._k_churn, entering)
        self.view.replace(best)
