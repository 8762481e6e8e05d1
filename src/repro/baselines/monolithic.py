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
from typing import Dict, List, Optional

from repro.core.assembly import Assembly
from repro.core.roles import RoleMap
from repro.gossip.peer_sampling import PeerSampling
from repro.gossip.selection import Proximity
from repro.gossip.vicinity import Vicinity
from repro.shapes.base import Shape
from repro.runtime.api import (
    OVERLAY_LAYER,
    PS_LAYER,
    RunnerConfig,
    build_elementary,
    make_runner,
    run_until,
)
from repro.sim.config import GossipParams
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport


@dataclass
class ElementaryResult:
    """Outcome of one elementary-baseline run."""

    rounds_to_converge: Optional[int]
    executed: int
    bytes_per_node_per_round: List[float]


def _elementary_engine(
    shape: Shape,
    n_nodes: int,
    seed: int,
    params: Optional[GossipParams],
    random_feed: bool = True,
) -> Engine:
    """A round engine over the elementary stack of a ``Shape`` *instance*
    (``make_runner`` deploys registry names only), optionally unfed."""
    config = RunnerConfig(
        kind="round", n_nodes=n_nodes, seed=seed, gossip=params or GossipParams()
    )
    deployment = build_elementary(config, shape=shape, random_feed=random_feed)
    engine = make_runner(
        config,
        network=deployment.network,
        transport=deployment.transport,
        streams=deployment.streams,
    )
    engine.deployment = deployment
    return engine


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
    engine = _elementary_engine(shape, n_nodes, seed, params, random_feed)
    converged_at = run_until(engine, engine.converged, max_rounds)
    executed = engine.round
    per_node = [
        value / n_nodes
        for value in engine.transport.bytes_series(OVERLAY_LAYER, executed)
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
    engine = _elementary_engine(shape, n_nodes, seed, params)
    engine.run(rounds)
    return [
        value / n_nodes
        for value in engine.transport.bytes_series(OVERLAY_LAYER, rounds)
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
        sized = self.params.resized(view_size)
        for node in self.network.nodes():
            role = self.role_map.role(node.node_id)
            shape = assembly.components[role.component].shape
            peer_sampling = PeerSampling(node.node_id, self.params, layer=PS_LAYER)
            peer_sampling.bootstrap(
                self.streams.stream("bootstrap", node.node_id),
                self.network.rendezvous,
            )
            node.attach(PS_LAYER, peer_sampling)
            node.attach(
                OVERLAY_LAYER,
                Vicinity(
                    node.node_id,
                    profile=(
                        component_index[role.component],
                        role.rank,
                        shape.coordinate(role.rank, role.comp_size),
                    ),
                    proximity=proximity,
                    params=sized,
                    layer=OVERLAY_LAYER,
                    random_layer=PS_LAYER,
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
                protocol = self.network.node(node_id).protocol(OVERLAY_LAYER)
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
        return run_until(self.engine, self._converged, max_rounds)
