"""Gossip substrate: partial views and self-organizing overlay protocols.

This package implements the published protocols the paper builds on:

- :mod:`~repro.gossip.peer_sampling` — the gossip-based peer-sampling
  framework of Jelasity et al. (ACM TOCS 2007), the bottom layer of the
  runtime (Figure 1's "Global peer sampling");
- :mod:`~repro.gossip.vicinity` — Vicinity (Voulgaris & van Steen,
  Middleware 2013), the topology-construction protocol the paper uses for
  its shape components: a greedy gossip optimizer over a user-supplied
  proximity function, fed "a pinch of randomness" by the peer-sampling layer;
- :mod:`~repro.gossip.tman` — T-Man (Jelasity, Montresor & Babaoglu, 2009),
  the alternative topology-construction protocol, used as an ablation core:
  Vicinity with a different partner rule.

All protocols exchange :class:`~repro.gossip.descriptors.Descriptor` records
through bounded :class:`~repro.gossip.views.PartialView` instances. None of
them owns a ``step``: each is a :class:`~repro.sim.protocol.GossipProtocol`
— a partner rule, an offer and an absorb rule — and inherits the transport
seam, the refusal rule, the bandwidth accounting, the counters and the flow
tagging from that one exchange.
"""

from repro.gossip.descriptors import Descriptor
from repro.gossip.peer_sampling import PeerSampling
from repro.gossip.tman import TMan
from repro.gossip.vicinity import Vicinity
from repro.gossip.views import PartialView

__all__ = ["Descriptor", "PartialView", "PeerSampling", "TMan", "Vicinity"]
