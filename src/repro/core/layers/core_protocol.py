"""The per-component core protocol — a Vicinity instance building the shape.

Paper §3.1: "one self organizing overlay per component (known as the
component's core protocol) realizes the component's actual shape". We
instantiate :class:`~repro.gossip.vicinity.Vicinity` with a proximity
function scoped to the component: descriptors of other components are
ineligible, and distances are the component shape's metric over shape
coordinates. UO1 feeds the candidate pool, so the core protocol converges
within the membership UO1 gathers.
"""

from __future__ import annotations

from typing import Optional

from repro.core.profiles import NodeProfile
from repro.gossip.selection import Proximity
from repro.gossip.tman import TMan
from repro.gossip.vicinity import Vicinity
from repro.shapes.base import Shape
from repro.sim.config import GossipParams
from repro.sim.protocol import Protocol


class ComponentShapeProximity(Proximity):
    """Shape distance within one component; other components are ineligible."""

    def __init__(self, component: str, shape: Shape, comp_size: int):
        self.component = component
        self.shape = shape
        self.comp_size = comp_size
        self._metric = shape.metric(comp_size)

    def distance(self, a: NodeProfile, b: NodeProfile) -> float:
        return self._metric(a.coord, b.coord)

    def eligible(self, a: NodeProfile, b: NodeProfile) -> bool:
        return (
            isinstance(b, NodeProfile)
            and b.component == self.component
            and b.comp_size == self.comp_size
        )


def make_core_protocol(
    node_id: int,
    profile: NodeProfile,
    shape: Shape,
    params: Optional[GossipParams] = None,
    layer: str = "core",
    random_layer: str = "peer_sampling",
    uo1_layer: str = "uo1",
    flavor: str = "vicinity",
) -> Protocol:
    """Build the core-protocol instance for one node.

    Parameters
    ----------
    flavor:
        ``"vicinity"`` (the paper's choice) or ``"tman"`` (ablation A4).

    The Vicinity view is sized by the shape (a star hub must hold every
    leaf), and :meth:`neighbors` exposes exactly the node's target degree, so
    the realized graph the convergence detector sees is the overlay's best
    current guess at the shape.
    """
    params = params or GossipParams()
    proximity = ComponentShapeProximity(
        profile.component, shape, profile.comp_size
    )
    sized = params.resized(shape.view_size(profile.comp_size, params.view_size))
    degree = shape.rank_degree(profile.rank, profile.comp_size)
    if degree == 0:
        # Shapes with no rank-specific targets (e.g. the random graph) still
        # demand a minimum connectivity, captured by their overall degree.
        degree = shape.degree(profile.comp_size)
    target_degree = max(1, degree)
    if flavor == "vicinity":
        return Vicinity(
            node_id,
            profile=profile,
            proximity=proximity,
            params=sized,
            layer=layer,
            random_layer=random_layer,
            candidate_layers=[uo1_layer],
            target_degree=target_degree,
        )
    if flavor == "tman":
        return TMan(
            node_id,
            profile=profile,
            proximity=proximity,
            params=sized,
            layer=layer,
            random_layer=random_layer,
            target_degree=target_degree,
        )
    raise ValueError(f"unknown core-protocol flavor {flavor!r}")
