"""Monolithic (single-overlay) topology construction baselines.

Traditional self-organizing overlays "rely on a single user-defined distance
function to connect nodes into a target structure" (paper §2.2). Two
baselines live here:

- the *elementary* baseline: one Vicinity instance building one elementary
  shape over the whole population — what the figures call "Elementary
  Topology", the reference the runtime's sub-procedures are compared to;
- the *monolithic composite*: the naive attempt to encode a whole assembly
  into one distance function, which the paper argues scales poorly; the
  ablation bench measures by how much.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.assembly import Assembly
from repro.core.roles import RoleMap
from repro.gossip.peer_sampling import PeerSampling
from repro.gossip.selection import Proximity
from repro.gossip.vicinity import Vicinity
from repro.shapes.base import Shape
from repro.sim.config import GossipParams, TransportCosts
from repro.runtime.api import RunnerConfig, make_runner
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport

_PS_LAYER = "peer_sampling"
_OVERLAY_LAYER = "overlay"


@dataclass
class ElementaryResult:
    """Outcome of one elementary-baseline run."""

    rounds_to_converge: Optional[int]
    executed: int
    bytes_per_node_per_round: List[float]


def _deploy_elementary(
    shape: Shape,
    n_nodes: int,
    seed: int,
    params: Optional[GossipParams] = None,
    costs: Optional[TransportCosts] = None,
    random_feed: bool = True,
) -> Tuple[Network, Engine, Shape, Dict[int, int]]:
    params = params or GossipParams()
    network = Network()
    streams = RandomStreams(seed)
    transport = Transport(costs or TransportCosts())
    nodes = network.create_nodes(n_nodes)
    metric = shape.metric(n_nodes)
    proximity = Proximity(metric)
    view_size = shape.view_size(n_nodes, params.view_size)
    sized = GossipParams(
        view_size=view_size,
        gossip_size=min(params.gossip_size, view_size + 1),
        healer=params.healer,
        swapper=params.swapper,
        backend=params.backend,
    )
    rank_of: Dict[int, int] = {}
    for rank, node in enumerate(nodes):
        rank_of[node.node_id] = rank
        peer_sampling = PeerSampling(node.node_id, params, layer=_PS_LAYER)
        peer_sampling.bootstrap(streams.stream("bootstrap", node.node_id), network)
        node.attach(_PS_LAYER, peer_sampling)
        node.attach(
            _OVERLAY_LAYER,
            Vicinity(
                node.node_id,
                profile=shape.coordinate(rank, n_nodes),
                proximity=proximity,
                params=sized,
                layer=_OVERLAY_LAYER,
                random_layer=_PS_LAYER if random_feed else None,
                target_degree=max(1, shape.rank_degree(rank, n_nodes)),
            ),
        )
    engine = make_runner(
        RunnerConfig(kind="round", n_nodes=n_nodes, seed=seed),
        network=network,
        transport=transport,
        streams=streams,
    )
    return network, engine, shape, rank_of


def _shape_converged(
    network: Network, shape: Shape, rank_of: Dict[int, int], n_nodes: int
) -> bool:
    adjacency: Dict[int, List[int]] = {}
    for node in network.alive_nodes():
        rank = rank_of[node.node_id]
        adjacency[rank] = [
            rank_of[other]
            for other in node.protocol(_OVERLAY_LAYER).neighbors()
            if other in rank_of
        ]
    return shape.converged(adjacency, n_nodes)


def elementary_convergence(
    shape: Shape,
    n_nodes: int,
    seed: int,
    max_rounds: int = 120,
    params: Optional[GossipParams] = None,
    random_feed: bool = True,
) -> ElementaryResult:
    """Rounds for one monolithic Vicinity to build ``shape`` over ``n_nodes``.

    ``random_feed=False`` disables the peer-sampling candidate feed — the
    "no pinch of randomness" ablation (A2 in DESIGN.md).
    """
    network, engine, shape, rank_of = _deploy_elementary(
        shape, n_nodes, seed, params, random_feed=random_feed
    )
    converged_at: Optional[int] = None
    for round_index in range(max_rounds):
        engine.run_round()
        if _shape_converged(network, shape, rank_of, n_nodes):
            converged_at = round_index + 1
            break
    executed = engine.round
    per_node = [
        value / n_nodes
        for value in engine.transport.bytes_series(_OVERLAY_LAYER, executed)
    ]
    return ElementaryResult(
        rounds_to_converge=converged_at,
        executed=executed,
        bytes_per_node_per_round=per_node,
    )


def elementary_bandwidth(
    shape: Shape,
    n_nodes: int,
    seed: int,
    rounds: int,
    params: Optional[GossipParams] = None,
) -> List[float]:
    """Per-node per-round byte series of the elementary baseline."""
    network, engine, _, _ = _deploy_elementary(shape, n_nodes, seed, params)
    engine.run(rounds)
    return [
        value / n_nodes
        for value in engine.transport.bytes_series(_OVERLAY_LAYER, rounds)
    ]


class _CompositeProximity(Proximity):
    """One distance function for a whole assembly (the monolithic attempt).

    Profiles are ``(component_index, rank, coord)``. Same-component pairs
    use the component shape's metric; cross-component pairs cost a large
    constant so intra-component structure dominates — the best one can do
    without per-component overlays and ports.
    """

    CROSS_COMPONENT_PENALTY = 1e6

    def __init__(self, metrics: List):
        self._metrics = metrics

    def distance(self, a, b) -> float:
        comp_a, _, coord_a = a
        comp_b, _, coord_b = b
        if comp_a != comp_b:
            return self.CROSS_COMPONENT_PENALTY
        return self._metrics[comp_a](coord_a, coord_b)


class MonolithicComposite:
    """Build a whole assembly with one Vicinity instance per node.

    Demonstrates the monolithic design the paper moves beyond: there is no
    UO1 to concentrate same-component candidates, no ports, no links — each
    node must fish its shape neighbours out of the global candidate stream.
    :meth:`run` measures rounds until every component's shape is realized
    (links cannot be expressed at all, which is the point).
    """

    def __init__(
        self,
        assembly: Assembly,
        n_nodes: int,
        seed: int,
        params: Optional[GossipParams] = None,
    ):
        self.assembly = assembly
        self.params = params or GossipParams()
        self.seed = seed
        self.network = Network()
        self.streams = RandomStreams(seed)
        self.transport = Transport()
        self.network.create_nodes(n_nodes)
        self.role_map: RoleMap = assembly.assign_roles(self.network.node_ids())
        component_names = list(assembly.components)
        component_index = {name: i for i, name in enumerate(component_names)}
        sizes = {
            name: self.role_map.component_size(name) for name in component_names
        }
        metrics = [
            assembly.components[name].shape.metric(sizes[name])
            for name in component_names
        ]
        proximity = _CompositeProximity(metrics)
        max_degree = max(
            assembly.components[name].shape.degree(sizes[name])
            for name in component_names
        )
        view_size = max(self.params.view_size, max_degree + 2)
        sized = GossipParams(
            view_size=view_size,
            gossip_size=min(self.params.gossip_size, view_size + 1),
            healer=self.params.healer,
            swapper=self.params.swapper,
            backend=self.params.backend,
        )
        for node in self.network.nodes():
            role = self.role_map.role(node.node_id)
            shape = assembly.components[role.component].shape
            peer_sampling = PeerSampling(node.node_id, self.params, layer=_PS_LAYER)
            peer_sampling.bootstrap(
                self.streams.stream("bootstrap", node.node_id), self.network
            )
            node.attach(_PS_LAYER, peer_sampling)
            node.attach(
                _OVERLAY_LAYER,
                Vicinity(
                    node.node_id,
                    profile=(
                        component_index[role.component],
                        role.rank,
                        shape.coordinate(role.rank, role.comp_size),
                    ),
                    proximity=proximity,
                    params=sized,
                    layer=_OVERLAY_LAYER,
                    random_layer=_PS_LAYER,
                    target_degree=max(
                        1, shape.rank_degree(role.rank, role.comp_size)
                    ),
                ),
            )
        self.engine = make_runner(
            RunnerConfig(kind="round", n_nodes=len(self.network.node_ids()), seed=self.seed),
            network=self.network,
            transport=self.transport,
            streams=self.streams,
        )

    def _converged(self) -> bool:
        for name, spec in self.assembly.components.items():
            members = self.role_map.members(name)
            size = len(members)
            rank_of = {node_id: rank for node_id, rank in members}
            adjacency: Dict[int, List[int]] = {}
            for node_id, rank in members:
                protocol = self.network.node(node_id).protocol(_OVERLAY_LAYER)
                adjacency[rank] = [
                    rank_of[other]
                    for other in protocol.neighbors()
                    if other in rank_of
                ]
            if not spec.shape.converged(adjacency, size):
                return False
        return True

    def run(self, max_rounds: int = 120) -> Optional[int]:
        """Rounds until all component shapes are realized, or ``None``."""
        for round_index in range(max_rounds):
            self.engine.run_round()
            if self._converged():
                return round_index + 1
        return None
