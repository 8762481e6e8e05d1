"""The assembly IR: a validated description of a complete target topology.

An :class:`Assembly` is what the DSL compiles to and what the runtime
deploys: the "superposition of [the] three elements (components, ports for
each component, links between ports) [that] completely defines a target
topology" (paper §3.2).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import AssemblyError
from repro.core.component import ComponentSpec
from repro.core.link import LinkSpec, PortRef
from repro.core.roles import AssignmentRule, ProportionalAssignment, RoleMap


class Assembly:
    """A named, validated set of components and links.

    Parameters
    ----------
    name:
        Assembly (topology) name.
    components:
        The component declarations; order is preserved (assignment rules
        deal node slices in declaration order).
    links:
        Undirected links between declared ports.
    assignment:
        The node-assignment rule; defaults to the proportional split.
    total_nodes:
        Optional deployment-size hint (the DSL's ``nodes N`` clause); the
        runtime can override it at :meth:`deploy` time.
    """

    def __init__(
        self,
        name: str,
        components: Sequence[ComponentSpec],
        links: Iterable[LinkSpec] = (),
        assignment: Optional[AssignmentRule] = None,
        total_nodes: Optional[int] = None,
    ):
        if not name or not name.isidentifier():
            raise AssemblyError(f"assembly name must be an identifier, got {name!r}")
        self.name = name
        self.components: Dict[str, ComponentSpec] = {}
        for spec in components:
            if spec.name in self.components:
                raise AssemblyError(f"duplicate component {spec.name!r}")
            self.components[spec.name] = spec
        self.links: List[LinkSpec] = []
        seen_links: Set[LinkSpec] = set()
        for link in links:
            if link in seen_links:
                raise AssemblyError(f"duplicate link {link}")
            seen_links.add(link)
            self.links.append(link)
        self.assignment = assignment or ProportionalAssignment()
        self.total_nodes = total_nodes
        self.validate()

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Check global consistency; raises :class:`AssemblyError`."""
        if not self.components:
            raise AssemblyError(f"assembly {self.name!r} declares no components")
        for link in self.links:
            for ref in link.endpoints():
                spec = self.components.get(ref.component)
                if spec is None:
                    raise AssemblyError(
                        f"link {link} references unknown component {ref.component!r}"
                    )
                if not spec.has_port(ref.port):
                    raise AssemblyError(
                        f"link {link} references unknown port {ref!s}"
                    )
        if self.total_nodes is not None:
            minimum = self.min_nodes()
            if self.total_nodes < minimum:
                raise AssemblyError(
                    f"assembly {self.name!r} needs at least {minimum} nodes, "
                    f"got total_nodes={self.total_nodes}"
                )

    def min_nodes(self) -> int:
        """The smallest population this assembly can be deployed on."""
        return sum(spec.size or 1 for spec in self.components.values())

    # -- lookup ------------------------------------------------------------------

    def component(self, name: str) -> ComponentSpec:
        try:
            return self.components[name]
        except KeyError:
            raise AssemblyError(
                f"assembly {self.name!r} has no component {name!r}"
            ) from None

    def component_names(self) -> List[str]:
        return list(self.components)

    def port(self, ref: PortRef):
        return self.component(ref.component).port(ref.port)

    def links_of(self, component: str) -> List[LinkSpec]:
        return [link for link in self.links if link.touches(component)]

    # -- deployment helpers ----------------------------------------------------------

    def assign_roles(
        self, node_ids: Sequence[int], previous: Optional[RoleMap] = None
    ) -> RoleMap:
        """Run the assignment rule over a concrete population.

        With ``previous``, its members keep their component where they can
        (see :func:`repro.core.roles.cut`).
        """
        return self.assignment.assign(node_ids, self, previous)

    def __repr__(self) -> str:
        return (
            f"Assembly({self.name!r}, components={list(self.components)}, "
            f"links={[str(link) for link in self.links]})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assembly):
            return NotImplemented
        return (
            self.name == other.name
            and self.components == other.components
            and sorted(map(str, self.links)) == sorted(map(str, other.links))
            and self.assignment == other.assignment
            and self.total_nodes == other.total_nodes
        )
