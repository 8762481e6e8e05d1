"""Shared harness for gossip-protocol tests: tiny networks with stacks."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.gossip.descriptors import Descriptor
from repro.gossip.peer_sampling import PeerSampling
from repro.gossip.selection import Proximity
from repro.sim.config import GossipParams
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport


class FilteredProximity(Proximity):
    """A proximity with an eligibility predicate: the tests' stand-in for
    the program's filtering proximities (``ComponentShapeProximity``)."""

    def __init__(self, distance, eligible):
        super().__init__(distance)
        self._eligible = eligible

    def eligible(self, a, b) -> bool:
        return self._eligible(a, b)


def youngest(a: Optional[Descriptor], b: Optional[Descriptor]) -> Optional[Descriptor]:
    """Of two descriptors for the same node, the fresher one (lower age)."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a.age <= b.age else b


def dedupe_youngest(descriptors: Iterable[Descriptor]) -> List[Descriptor]:
    """Reference dedupe: one copy per node id, the youngest (the first of
    equal ages), in first-seen order."""
    best: Dict[int, Descriptor] = {}
    for descriptor in descriptors:
        best[descriptor.node_id] = youngest(best.get(descriptor.node_id), descriptor)
    return list(best.values())


class GossipWorld:
    """A small network where every node runs peer sampling plus optional
    extra layers supplied by a factory."""

    def __init__(
        self,
        n_nodes: int,
        seed: int = 1,
        params: Optional[GossipParams] = None,
        extra: Optional[Callable[[Node, int], None]] = None,
        bootstrap: bool = True,
    ):
        self.params = params or GossipParams(view_size=8, gossip_size=4, healer=1, swapper=3)
        self.network = Network()
        self.streams = RandomStreams(seed)
        self.transport = Transport()
        self.nodes: List[Node] = self.network.create_nodes(n_nodes)
        for index, node in enumerate(self.nodes):
            peer_sampling = PeerSampling(node.node_id, self.params)
            if bootstrap:
                peer_sampling.bootstrap(
                    self.streams.stream("bootstrap", node.node_id),
                    self.network.rendezvous,
                )
            node.attach("peer_sampling", peer_sampling)
            if extra is not None:
                extra(node, index)
        self.engine = Engine(self.network, self.transport, self.streams)

    def run(self, rounds: int) -> None:
        self.engine.run(rounds)

    def ps(self, node_index: int) -> PeerSampling:
        protocol = self.nodes[node_index].protocol("peer_sampling")
        assert isinstance(protocol, PeerSampling)
        return protocol
