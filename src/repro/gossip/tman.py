"""T-Man — gossip-based fast overlay topology construction.

Implements Jelasity, Montresor & Babaoglu (Computer Networks 2009). T-Man is
the second topology-construction protocol the paper cites; we provide it as
an alternative core protocol for the shape components (ablation A4 in
DESIGN.md). Differences from Vicinity:

- the gossip partner is drawn uniformly from the ψ (``psi``) entries ranked
  closest to the node, not from the tail of the view — the one rule this
  module overrides;
- the exchanged buffer contains the ``m`` entries of the merged
  (view ∪ random-view ∪ self) set ranked closest *to the partner*, and the
  view becomes the best of (view ∪ buffer ∪ random view): exactly
  Vicinity's offer and merge with no extra candidate layers;
- the view is unbounded in the original paper; we keep the bounded-view
  variant (also evaluated there) for memory parity with Vicinity.
"""

from __future__ import annotations

from typing import Optional

from repro.gossip.selection import Profile, Proximity
from repro.gossip.vicinity import Vicinity
from repro.sim.config import GossipParams
from repro.sim.engine import RoundContext


class TMan(Vicinity):
    """One node's instance of a T-Man overlay.

    Parameters mirror :class:`~repro.gossip.vicinity.Vicinity`.
    """

    #: ψ: the size of the closest-peers pool the gossip partner is drawn from.
    psi = 3

    def __init__(
        self,
        node_id: int,
        profile: Profile,
        proximity: Proximity,
        params: Optional[GossipParams] = None,
        layer: str = "tman",
        random_layer: Optional[str] = "peer_sampling",
        target_degree: Optional[int] = None,
    ):
        super().__init__(
            node_id, profile, proximity, params, layer, random_layer, target_degree=target_degree
        )

    def _choose_partner(self, ctx: RoundContext) -> Optional[int]:
        """Uniform draw from the ψ closest live view entries."""
        while len(self.view):
            ranked = self.view.closest_to(self.psi, self.proximity, self.profile)
            live = [d for d in ranked if ctx.peers.is_alive(d.node_id)]
            if live:
                return ctx.rng().choice(live).node_id
            for descriptor in ranked:
                # Dead peers get tombstones against stale resurrection.
                self.view.purge(descriptor.node_id)
                if ctx.obs is not None:
                    ctx.obs.count_key(self._k_dead)
        return self._random_partner(ctx)
