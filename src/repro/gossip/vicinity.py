"""Vicinity — greedy topology construction with a pinch of randomness.

Implements the protocol of Voulgaris & van Steen (Middleware 2013), the
overlay builder the paper uses for every shape component: each node greedily
keeps the ``view_size`` descriptors *closest* to itself under a user-supplied
proximity function, and gossips candidate descriptors with its current
neighbours. To escape local optima and to find far-away regions of the
profile space, the candidate pool is topped up from the peer-sampling layer
(the "pinch of randomness" of the protocol's title).

The layered runtime instantiates several Vicinity variants differing only in
their proximity function and eligibility filter — the same genericity the
original protocol advertises.
"""

from __future__ import annotations

from typing import List, Optional

from repro.gossip.descriptors import Descriptor
from repro.gossip.peer_sampling import PeerSampling
from repro.gossip.selection import Profile, Proximity, select_closest
from repro.gossip.views import PartialView
from repro.perf.cache import DistanceCache
from repro.sim.config import GossipParams
from repro.sim.engine import RoundContext
from repro.sim.protocol import Protocol
from repro.sim.transport import ExchangeRequest


class Vicinity(Protocol):
    """One node's instance of a Vicinity overlay.

    Parameters
    ----------
    node_id:
        Hosting node identity.
    profile:
        This node's coordinate in the layer's profile space (e.g. its rank
        on a ring). May be updated at runtime via :meth:`set_profile` when
        the assembly is reconfigured.
    proximity:
        Distance + eligibility over profiles; *the* parameter that selects
        which topology this instance builds.
    params:
        View size and gossip buffer size.
    layer:
        Attachment/accounting label.
    random_layer:
        Name of the peer-sampling protocol on the same node used as the
        random candidate source, or ``None`` to run without it (ablation A2).
    candidate_layers:
        Additional same-node layers whose views are used as candidate
        sources (the runtime feeds a component's core protocol from UO1).
    target_degree:
        How many closest entries :meth:`neighbors` exposes; defaults to the
        full view.
    descriptor_ttl:
        Maximum descriptor age kept or re-advertised. A dead node can no
        longer mint fresh descriptors, so its stale entries age out of the
        system instead of circulating forever — without a TTL, uniform-
        distance shapes (cliques) reach a zombie equilibrium where every
        node keeps re-importing a dead low-id descriptor from its peers.
        Defaults to ``max(24, 2 × view_size)`` (a live neighbour's entry is
        refreshed far more often than that).
    """

    def __init__(
        self,
        node_id: int,
        profile: Profile,
        proximity: Proximity,
        params: Optional[GossipParams] = None,
        layer: str = "vicinity",
        random_layer: Optional[str] = "peer_sampling",
        candidate_layers: List[str] = (),
        target_degree: Optional[int] = None,
        descriptor_ttl: Optional[int] = None,
    ):
        self.node_id = node_id
        self.profile = profile
        self.proximity = proximity
        self.params = params or GossipParams()
        self.layer = layer
        self.random_layer = random_layer
        self.candidate_layers = list(candidate_layers)
        self.target_degree = target_degree or self.params.view_size
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
        # The per-node memoized distance cache: every round this node ranks
        # the same few dozen candidate profiles against its own profile, and
        # ranking-function evaluation dominates the gossip round. The cache
        # is a drop-in Proximity, so partner-referenced rankings pass
        # through it unmemoized and unchanged.
        self._distances = DistanceCache(proximity, profile)

    # -- descriptor & profile ---------------------------------------------------

    def self_descriptor(self) -> Descriptor:
        # Cached: this is called for every candidate peek on the hot path.
        return self._self_descriptor

    def set_profile(self, profile: Profile) -> None:
        """Adopt a new profile (assembly reconfiguration).

        Entries that are no longer eligible under the new profile are
        discarded immediately so the view re-converges from valid state,
        and the memoized distances — all measured from the old profile —
        are invalidated.
        """
        self.profile = profile
        self._self_descriptor = Descriptor(self.node_id, age=0, profile=profile)
        self._distances.rebind(profile)
        self.view.discard_where(
            lambda d: not self.proximity.eligible(profile, d.profile)
        )

    # -- protocol interface --------------------------------------------------------

    def neighbors(self) -> List[int]:
        # closest_to batches the per-entry distance evaluation on columnar
        # views (one pass over the profile column, no materialization for
        # entries below the cut); identical ranking on either backend.
        best = self.view.closest_to(self.target_degree, self._distances)
        return [descriptor.node_id for descriptor in best]

    def forget(self, node_id: int) -> None:
        self.view.remove(node_id)

    def step(self, ctx: RoundContext) -> None:
        """One active round: exchange the most useful candidates with the
        oldest live neighbour, then keep the closest ``view_size`` overall."""
        self.view.increase_age()
        if not ctx.exchange_ok():
            return  # this round's exchange was lost
        partner = self._choose_partner(ctx)
        if partner is None:
            return
        if not ctx.transport.deliverable(ctx, partner.node_id, self.layer):
            # Unreachable (not dead): drop without a tombstone so the entry
            # may return once the partition heals or the link recovers.
            self.view.remove(partner.node_id)
            return
        obs = ctx.obs
        flow = obs.flow if obs is not None else None
        pool = self._candidate_pool(ctx)
        buffer = self._buffer_from(pool, partner.profile, partner.node_id, flow, ctx)
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
        self._merge_pool(ctx, pool, reply)

    def on_gossip(
        self,
        ctx: RoundContext,
        requester_profile: Profile,
        requester_id: int,
        received: List[Descriptor],
    ) -> List[Descriptor]:
        """Passive side: reply with candidates useful *to the requester*."""
        obs = ctx.obs
        flow = obs.flow if obs is not None else None
        pool = self._candidate_pool(ctx)
        reply = self._buffer_from(pool, requester_profile, requester_id, flow, ctx)
        if obs is not None:
            obs.count_key(self._k_sent, len(reply))
            obs.count_key(self._k_received, len(received))
            if flow is not None:
                received = flow.on_received(
                    self.layer, ctx.round, self.node_id, requester_id, received
                )
        self._merge_pool(ctx, pool, received)
        return reply

    def on_request(
        self, ctx: RoundContext, request: ExchangeRequest
    ) -> List[Descriptor]:
        """Transport-seam entry point: delegate to :meth:`on_gossip`."""
        return self.on_gossip(ctx, request.profile, request.sender, request.payload)

    # -- internals ---------------------------------------------------------------------

    def _choose_partner(self, ctx: RoundContext) -> Optional[Descriptor]:
        """The oldest live view entry; falls back to the random layer."""
        while len(self.view):
            candidate = self.view.oldest()
            if candidate is None:
                break
            if ctx.network.is_alive(candidate.node_id):
                return candidate
            # Dead (not merely unreachable): tombstone against resurrection.
            self.view.purge(candidate.node_id)
            if ctx.obs is not None:
                ctx.obs.count_key(self._k_dead)
        return self._random_partner(ctx)

    def _own_node(self, ctx: RoundContext):
        """The node hosting *this* protocol instance.

        Not ``ctx.node``: in a passive ``on_gossip`` the context belongs to
        the requester, and peeking the requester's helper layers instead of
        our own would silently mix candidate sources.
        """
        return ctx.network.node(self.node_id)

    def _random_partner(self, ctx: RoundContext) -> Optional[Descriptor]:
        """Bootstrap partner from the peer-sampling layer's view.

        Only eligible peers qualify (a core-protocol instance must gossip
        with a node that runs the same layer and passes the filter).
        """
        own = self._own_node(ctx)
        if self.random_layer is None or not own.has_protocol(self.random_layer):
            return None
        random_view = own.protocol(self.random_layer).neighbors()
        candidates = []
        for node_id in random_view:
            if node_id == self.node_id or not ctx.network.is_alive(node_id):
                continue
            if not ctx.transport.reachable(ctx, node_id):
                continue  # behind an active partition cut
            peer = ctx.network.node(node_id)
            if not peer.has_protocol(self.layer):
                continue
            peer_protocol = peer.protocol(self.layer)
            assert isinstance(peer_protocol, Vicinity)
            if self.proximity.eligible(self.profile, peer_protocol.profile):
                candidates.append(peer_protocol.self_descriptor())
        if not candidates:
            return None
        return ctx.rng().choice(candidates)

    def _candidate_pool(self, ctx: RoundContext) -> List[Descriptor]:
        """View entries plus fresh candidates from the helper layers."""
        own = self._own_node(ctx)
        pool = self.view.descriptors()
        for source in self._source_layers(own):
            for node_id in own.protocol(source).neighbors():
                if node_id == self.node_id or not ctx.network.is_alive(node_id):
                    continue
                if not ctx.transport.reachable(ctx, node_id):
                    continue  # peeking state across the cut would leak it
                peer = ctx.network.node(node_id)
                if not peer.has_protocol(self.layer):
                    continue
                peer_protocol = peer.protocol(self.layer)
                assert isinstance(peer_protocol, Vicinity)
                pool.append(peer_protocol.self_descriptor())
        return pool

    def _source_layers(self, own_node) -> List[str]:
        sources = []
        if self.random_layer is not None and own_node.has_protocol(self.random_layer):
            sources.append(self.random_layer)
        for layer in self.candidate_layers:
            if own_node.has_protocol(layer):
                sources.append(layer)
        return sources

    def _fresh(self, descriptors: List[Descriptor]) -> List[Descriptor]:
        """Drop entries past the TTL (their owner stopped refreshing them)."""
        return [d for d in descriptors if d.age <= self.descriptor_ttl]

    def _buffer_from(
        self,
        pool: List[Descriptor],
        reference: Profile,
        recipient_id: int,
        flow=None,
        ctx: Optional[RoundContext] = None,
    ) -> List[Descriptor]:
        """The ``gossip_size`` fresh candidates most useful to ``reference``."""
        advert = self.self_descriptor()
        if flow is not None and ctx is not None:
            advert = flow.advertise(advert, self.node_id, ctx.round)
        return select_closest(
            self._fresh(pool) + [advert],
            reference,
            self._distances,
            self.params.gossip_size,
            exclude_id=recipient_id,
        )

    def _merge_pool(
        self, ctx: RoundContext, pool: List[Descriptor], received: List[Descriptor]
    ) -> None:
        """Keep the ``view_size`` eligible candidates closest to self.

        Per the Vicinity algorithm, the update pool is the union of the
        current view, the received buffer, *and* the helper layers' fresh
        candidates (peer sampling and any runtime feeds) — merging the
        random layer every cycle is what lets the overlay discover regions
        the greedy exchange alone would starve. The pool is computed once
        per exchange and shared with the outgoing-buffer selection.

        Received descriptors age by one hop in transit (PeerSim semantics).
        This matters for the TTL: without in-transit aging, an attractive
        descriptor of a *dead* node can relay age-0 along intra-round
        gossip chains forever; with it, the minimum age of its copies
        strictly increases (nobody can mint fresh ones) until the TTL
        purges it everywhere.
        """
        best = select_closest(
            self._fresh(pool + [d.aged() for d in received]),
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
