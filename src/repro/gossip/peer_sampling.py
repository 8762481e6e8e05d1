"""Gossip-based peer sampling (Jelasity et al., ACM TOCS 2007).

The bottom layer of the paper's runtime (Figure 1, "Global peer sampling"):
maintains, at each node, a small uniformly random sample of the live
population. The implementation follows the generic framework of the TOCS
paper — push-pull view exchange with the *healer* (H) and *swapper* (S)
parameters — with tail (oldest-first) peer selection, the configuration shown
there to give the best self-healing behaviour.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.gossip.descriptors import Descriptor
from repro.gossip.views import PartialView, oldest_of
from repro.sim.config import GossipParams
from repro.sim.engine import RoundContext
from repro.sim.network import Rendezvous
from repro.sim.protocol import GossipProtocol


class PeerSampling(GossipProtocol):
    """One node's instance of the peer-sampling service.

    Parameters
    ----------
    node_id:
        The hosting node's identity (advertised in gossip).
    params:
        View size *C*, buffer size, healer *H* and swapper *S*.
    layer:
        Transport accounting label; also the name under which the protocol is
        attached, so that upper layers can find it via ``node.protocol``.
    """

    def __init__(
        self,
        node_id: int,
        params: Optional[GossipParams] = None,
        layer: str = "peer_sampling",
    ):
        super().__init__(node_id, layer)
        self.params = params or GossipParams()
        self.view = PartialView(self.params.view_size)
        self._self_descriptor = Descriptor(node_id, age=0, profile=None)

    # -- descriptor of the hosting node ---------------------------------------

    def self_descriptor(self) -> Descriptor:
        return self._self_descriptor

    # -- protocol interface -----------------------------------------------------

    def neighbors(self) -> List[int]:
        return self.view.ids()

    def forget(self, node_id: int) -> None:
        self.view.remove(node_id)

    # -- bootstrap -----------------------------------------------------------------

    def bootstrap(
        self, rng: random.Random, rendezvous: Rendezvous, count: int = 0
    ) -> None:
        """Insert up to ``count`` (default: view size) contacts from the
        rendezvous.

        The equivalent of PeerSim's ``WireKOut`` initializer: without it the
        initial knowledge graph can partition into isolated islands that
        gossip can never bridge. The runtime calls this at deployment and
        for every joining node; a node re-contacts the rendezvous the same
        way whenever its view runs dry or a heal re-joins its overlay.
        """
        for node_id in rendezvous.sample(
            rng, count or self.params.view_size, exclude=self.node_id
        ):
            self.view.insert(Descriptor(node_id, age=0, profile=None))

    # -- internals -----------------------------------------------------------------

    def _choose_partner(self, ctx: RoundContext) -> Optional[int]:
        """Tail selection with dead-peer healing and rendezvous re-bootstrap."""
        candidate = self._oldest_live(ctx)
        if candidate is None:
            # Empty view: re-contact the rendezvous (a node rejoining via the
            # bootstrap service after losing all links). Its sample may name
            # dead nodes; the second probe purges them like any dead entry.
            self.bootstrap(ctx.rng(), ctx.network.rendezvous, self.params.gossip_size)
            candidate = self._oldest_live(ctx)
        return None if candidate is None else candidate.node_id

    def _offer(self, ctx: RoundContext, flow, peer_id, request):
        """Own fresh descriptor plus a random slice of the view."""
        advert = self._self_descriptor
        if flow is not None:
            advert = advert.tagged(ctx.round)
        buffer = [advert]
        buffer.extend(self.view.sample(ctx.rng(), self.params.gossip_size - 1))
        return buffer, buffer

    def _absorb(
        self,
        ctx: RoundContext,
        sent: List[Descriptor],
        received: List[Descriptor],
    ) -> None:
        """Run :func:`select_view` on this node's view and count the churn."""
        pool = select_view(
            self.node_id,
            {d.node_id: d for d in self.view},
            sent,
            received,
            self.params,
            ctx.rng(),
        )
        if ctx.obs is not None:
            entering = len(pool.keys() - self.view.id_set())
            ctx.obs.count_key(self._k_replacements)
            ctx.obs.count_key(self._k_churn, entering)
        self.view.replace(pool.values())


def select_view(
    node_id: int,
    pool: Dict[int, Descriptor],
    sent: List[Descriptor],
    received: List[Descriptor],
    params: GossipParams,
    rng: random.Random,
) -> Dict[int, Descriptor]:
    """The framework's ``select`` step (TOCS 2007, Fig. 8) — the one copy.

    Merge ``received`` into ``pool`` (the current view keyed by node id,
    youngest copy wins, ``node_id`` itself never enters), then trim the
    overflow past ``params.view_size`` in three waves: the H oldest entries
    (healer), up to S of the entries just shipped in ``sent`` (swapper),
    then uniformly at random from ``rng``. Mutates and returns ``pool``.

    Pure in everything but ``pool`` and ``rng``, so :class:`PeerSampling`
    and UO1 (:class:`~repro.core.layers.uo1.SameComponentOverlay`) share it
    and cannot drift apart on the rule their digests both depend on.
    """
    for descriptor in received:
        if descriptor.node_id == node_id:
            continue
        current = pool.get(descriptor.node_id)
        if current is None or descriptor.age < current.age:
            pool[descriptor.node_id] = descriptor

    def excess() -> int:
        return len(pool) - params.view_size

    if excess() > 0 and params.healer > 0:
        # The H oldest, one at a time: exactly ``heapq.nsmallest`` on
        # ``(-age, node_id)`` without a key call per entry. O(H·n), and
        # every configuration runs H = 1.
        for _ in range(min(params.healer, excess())):
            del pool[oldest_of(pool).node_id]
    if excess() > 0 and params.swapper > 0:
        swaps = min(params.swapper, excess())
        for descriptor in sent:
            if swaps <= 0:
                break
            if descriptor.node_id == node_id:
                continue
            if pool.pop(descriptor.node_id, None) is not None:
                swaps -= 1
    while excess() > 0:
        victim = rng.choice(list(pool.keys()))
        del pool[victim]
    return pool
