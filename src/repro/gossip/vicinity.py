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
from repro.gossip.selection import Profile, Proximity, select_closest
from repro.gossip.views import PartialView
from repro.perf.cache import DistanceCache
from repro.sim.config import GossipParams
from repro.sim.engine import RoundContext
from repro.sim.protocol import GossipProtocol


class Vicinity(GossipProtocol):
    """One node's instance of a Vicinity overlay.

    Parameters
    ----------
    node_id:
        Hosting node identity.
    profile:
        This node's coordinate in the layer's profile space (e.g. its rank
        on a ring). May be updated at runtime via :meth:`set_profile` when
        a rebalance changes the node's role.
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
        The feed runs both ways: what an exchange brings in is offered back
        through their ``gather`` (UO1 takes it while its component fits a
        view, see :meth:`~repro.core.layers.uo1.SameComponentOverlay.gather`).
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
        super().__init__(node_id, layer)
        self.profile = profile
        self.proximity = proximity
        self.params = params or GossipParams()
        self.random_layer = random_layer
        self.candidate_layers = list(candidate_layers)
        self.target_degree = target_degree or self.params.view_size
        self.descriptor_ttl = descriptor_ttl or max(24, 2 * self.params.view_size)
        self.view = PartialView(self.params.view_size)
        self._self_descriptor = Descriptor(node_id, age=0, profile=profile)
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
        # closest_to reads warm distances straight out of the memo.
        best = self.view.closest_to(self.target_degree, self._distances)
        return [descriptor.node_id for descriptor in best]

    def forget(self, node_id: int) -> None:
        self.view.remove(node_id)

    @property
    def wire_profile(self) -> Profile:
        """Shipped with every request: the partner ranks its reply on it."""
        return self.profile

    # -- internals ---------------------------------------------------------------------

    def _choose_partner(self, ctx: RoundContext) -> Optional[int]:
        """The oldest live view entry; falls back to the helper layers."""
        partner = self._oldest_live(ctx)
        return partner.node_id if partner is not None else self._random_partner(ctx)

    def _random_partner(self, ctx: RoundContext) -> Optional[int]:
        """Bootstrap partner from the first helper layer that lists one.

        The candidate layers come first: they are the runtime's targeted
        feeds (UO1 lists exactly this component's members), where the
        peer-sampling view holds an eligible peer only by chance. Only
        eligible peers qualify (a core-protocol instance must gossip with
        a node that runs the same layer and passes the filter).
        """
        for layer in (*self.candidate_layers, self.random_layer):
            if layer is None:
                continue
            candidates = [
                advert
                for advert in self._peer_adverts(ctx, layer)
                if self.proximity.eligible(self.profile, advert.profile)
            ]
            if candidates:
                return ctx.rng().choice(candidates).node_id
        return None

    def _candidate_pool(self, ctx: RoundContext) -> List[Descriptor]:
        """View entries plus fresh candidates from the helper layers."""
        pool = self.view.descriptors()
        if self.random_layer is not None:
            pool.extend(self._peer_adverts(ctx, self.random_layer))
        for layer in self.candidate_layers:
            pool.extend(self._peer_adverts(ctx, layer))
        return pool

    def _offer(self, ctx: RoundContext, flow, peer_id, request):
        """The ``gossip_size`` fresh candidates most useful *to the peer*.

        Entries past the TTL (their owner stopped refreshing them) are
        neither offered nor merged: ``select_closest`` skips them.

        The candidate pool is computed once per exchange and kept for the
        merge. The reference the buffer is ranked on is the coordinate the
        peer advertised: on the wire for a requester, in the view entry
        that made it this round's partner otherwise (a bootstrap partner is
        in no view — the view was empty — so its own layer is asked).
        """
        if request is not None:
            reference = request.profile
        else:
            known = self.view.get(peer_id)
            reference = (
                known.profile
                if known is not None
                else ctx.network.node(peer_id).protocol(self.layer).profile
            )
        pool = self._candidate_pool(ctx)
        advert = self._self_descriptor
        if flow is not None:
            advert = advert.tagged(ctx.round)
        buffer = select_closest(
            pool + [advert],
            reference,
            self._distances,
            self.params.gossip_size,
            exclude_id=peer_id,
            max_age=self.descriptor_ttl,
        )
        return buffer, pool

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
        arrived = [d.aged() for d in received]
        best = select_closest(
            pool + arrived,
            self.profile,
            self._distances,
            self.params.view_size,
            exclude_id=self.node_id,
            max_age=self.descriptor_ttl,
        )
        if ctx.obs is not None:
            ids = self.view.id_set()
            entering = sum(1 for d in best if d.node_id not in ids)
            ctx.obs.count_key(self._k_replacements)
            ctx.obs.count_key(self._k_churn, entering)
        self.view.replace(best)
        if self.candidate_layers:
            # By id: the passive half runs under the requester's context.
            own = ctx.network.node(self.node_id)
            for layer in self.candidate_layers:
                if own.has_protocol(layer):
                    own.protocol(layer).gather(arrived)

    _absorb = _merge_pool
