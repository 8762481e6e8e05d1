"""Gossip-based peer sampling (Jelasity et al., ACM TOCS 2007).

The bottom layer of the paper's runtime (Figure 1, "Global peer sampling"):
maintains, at each node, a small uniformly random sample of the live
population. The implementation follows the generic framework of the TOCS
paper — push-pull view exchange with the *healer* (H) and *swapper* (S)
parameters — with tail (oldest-first) peer selection, the configuration shown
there to give the best self-healing behaviour.
"""

from __future__ import annotations

import heapq
import random
from functools import partial
from typing import Dict, List, Optional

from repro.gossip.descriptors import Descriptor
from repro.gossip.views import PartialView
from repro.sim.config import GossipParams
from repro.sim.engine import RoundContext
from repro.sim.network import Network
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
    select_tail:
        If true (default), gossip with the oldest view entry; otherwise with
        a uniformly random one.
    """

    def __init__(
        self,
        node_id: int,
        params: Optional[GossipParams] = None,
        layer: str = "peer_sampling",
        select_tail: bool = True,
    ):
        super().__init__(node_id, layer)
        self.params = params or GossipParams()
        self.select_tail = select_tail
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

    def bootstrap(self, rng: random.Random, network: Network, count: int = 0) -> None:
        """Fill the view with up to ``count`` random live peers.

        The equivalent of PeerSim's ``WireKOut`` initializer: without it the
        initial knowledge graph can partition into isolated islands that
        gossip can never bridge. The runtime calls this at deployment and
        for every joining node.
        """
        count = count or self.params.view_size
        candidates = [nid for nid in network.alive_ids() if nid != self.node_id]
        if not candidates:
            return
        for node_id in rng.sample(candidates, min(count, len(candidates))):
            self.view.insert(Descriptor(node_id, age=0, profile=None))

    # -- internals -----------------------------------------------------------------

    def _choose_partner(self, ctx: RoundContext) -> Optional[int]:
        """Tail (or uniform) selection with dead-peer healing and oracle bootstrap."""
        pick = None if self.select_tail else partial(self.view.random, ctx.rng())
        candidate = self._oldest_live(ctx, pick=pick)
        if candidate is not None:
            return candidate.node_id
        # Empty view: re-bootstrap through the membership oracle (models a
        # node rejoining via the bootstrap service after losing all links).
        self.bootstrap(ctx.rng(), ctx.network, self.params.gossip_size)
        candidate = self.view.random(ctx.rng())
        if candidate is not None and ctx.network.node(candidate.node_id).has_protocol(
            self.layer
        ):
            return candidate.node_id
        return None

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

    Pure in everything but ``pool`` and ``rng``, so the round engine's
    :class:`PeerSampling` and the BSP engine's shard nodes share it and
    cannot drift apart on the rule their digests both depend on.
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
            if descriptor.node_id == node_id:
                continue
            if pool.pop(descriptor.node_id, None) is not None:
                swaps -= 1
    while excess() > 0:
        victim = rng.choice(list(pool.keys()))
        del pool[victim]
    return pool
