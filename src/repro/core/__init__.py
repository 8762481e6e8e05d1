"""The paper's core contribution: assemblies of components realized by a
layered self-organizing runtime.

- :mod:`~repro.core.component` / :mod:`~repro.core.port` /
  :mod:`~repro.core.link` / :mod:`~repro.core.assembly` — the intermediate
  representation of a target topology: components (collective entities with
  an elementary shape), their ports, and links between ports;
- :mod:`~repro.core.roles` — node-assignment rules ("which node will be
  assigned to which component");
- :mod:`~repro.core.layers` — the runtime's gossip sub-procedures from the
  paper's Figure 1: UO1 (same-component), UO2 (distant-component), port
  selection, port connection, and the per-component core protocol;
- :mod:`~repro.core.runtime` — wires the layers into per-node protocol
  stacks and drives deployments; ``Deployment.rebalance(assembly)`` is the
  one lifecycle call, for failure waves and for dynamic reconfiguration
  (paper §4.iii) alike;
- :mod:`~repro.core.convergence` — the per-layer structural convergence
  detectors behind the paper's figures.
"""

from repro.core.assembly import Assembly
from repro.core.component import ComponentSpec
from repro.core.convergence import ConvergenceReport, ConvergenceTracker
from repro.core.link import LinkSpec, PortRef
from repro.core.port import PortSpec, make_selector
from repro.core.profiles import NodeProfile
from repro.core.roles import (
    HashAssignment,
    ProportionalAssignment,
    Role,
    RoleMap,
)
from repro.core.runtime import Deployment, Runtime

__all__ = [
    "Assembly",
    "ComponentSpec",
    "ConvergenceReport",
    "ConvergenceTracker",
    "Deployment",
    "HashAssignment",
    "LinkSpec",
    "NodeProfile",
    "PortRef",
    "PortSpec",
    "ProportionalAssignment",
    "Role",
    "RoleMap",
    "Runtime",
    "make_selector",
]
