"""Fluent programmatic construction of assemblies.

The builder is the Python-native twin of the textual DSL — the paper argues
developers should "programmatically manipulate distributed systems as first
class entities", and this is that surface::

    builder = TopologyBuilder("Mongo")
    builder.component("router", "star", size=8).port("hub", "hub")
    for i in range(4):
        builder.component(f"shard{i}", "clique", size=12).port("head", "lowest_id")
        builder.link(("router", "hub"), (f"shard{i}", "head"))
    assembly = builder.nodes(56).build()
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import AssemblyError
from repro.core.assembly import Assembly
from repro.core.component import ComponentSpec
from repro.core.link import LinkSpec, PortRef
from repro.core.port import PortSpec, make_selector
from repro.core.roles import AssignmentRule, make_assignment
from repro.shapes.base import Shape
from repro.shapes.registry import make_shape

#: A port endpoint: "component.port" text or a (component, port) pair.
PortEndpoint = Union[str, Tuple[str, str]]


class ComponentBuilder:
    """Builder for one component; returned by :meth:`TopologyBuilder.component`."""

    def __init__(
        self,
        parent: "TopologyBuilder",
        name: str,
        shape: Shape,
        weight: float,
        size: Optional[int],
    ):
        self._parent = parent
        self._name = name
        self._shape = shape
        self._weight = weight
        self._size = size
        self._ports: List[PortSpec] = []

    def port(self, name: str, selector: str = "lowest_id") -> "ComponentBuilder":
        """Declare a port with a selector rule (chainable)."""
        if any(port.name == name for port in self._ports):
            raise AssemblyError(
                f"component {self._name!r}: duplicate port {name!r}"
            )
        self._ports.append(PortSpec(name, make_selector(selector)))
        return self

    def done(self) -> "TopologyBuilder":
        """Return to the topology builder (optional sugar for chaining)."""
        return self._parent

    def _spec(self) -> ComponentSpec:
        return ComponentSpec(
            name=self._name,
            shape=self._shape,
            weight=self._weight,
            size=self._size,
            ports=tuple(self._ports),
        )


class TopologyBuilder:
    """Accumulates components and links, then builds a validated assembly."""

    def __init__(self, name: str):
        self._name = name
        self._components: Dict[str, ComponentBuilder] = {}
        self._links: List[LinkSpec] = []
        self._nodes: Optional[int] = None
        self._assignment: Optional[AssignmentRule] = None

    # -- declarations -----------------------------------------------------------

    def component(
        self,
        name: str,
        shape: Union[str, Shape],
        weight: float = 1.0,
        size: Optional[int] = None,
        **shape_params: Any,
    ) -> ComponentBuilder:
        """Declare a component; returns its :class:`ComponentBuilder`.

        ``shape`` is a registry name (with ``shape_params`` forwarded to the
        factory) or a ready :class:`~repro.shapes.base.Shape` instance.
        """
        if name in self._components:
            raise AssemblyError(f"duplicate component {name!r}")
        if isinstance(shape, str):
            shape = make_shape(shape, **shape_params)
        elif shape_params:
            raise AssemblyError(
                "shape_params are only valid with a shape name, "
                f"not a Shape instance ({shape!r})"
            )
        builder = ComponentBuilder(self, name, shape, weight, size)
        self._components[name] = builder
        return builder

    def replicate(
        self,
        base_name: str,
        count: int,
        shape: Union[str, Shape],
        weight: float = 1.0,
        size: Optional[int] = None,
        ports: Optional[Dict[str, str]] = None,
        **shape_params: Any,
    ) -> List[str]:
        """Declare ``count`` identical components ``base_name0 .. base_nameN``.

        The builder twin of the DSL's ``component NAME[K] : …`` sugar.
        ``ports`` maps port names to selector rules, applied to every
        replica. Returns the expanded component names, handy for linking::

            shards = builder.replicate("shard", 4, "clique", size=18,
                                       ports={"head": "lowest_id"})
            for shard in shards:
                builder.link(("router", "hub"), (shard, "head"))
        """
        if count < 1:
            raise AssemblyError(f"replica count must be >= 1, got {count}")
        names = []
        for index in range(count):
            component = self.component(
                f"{base_name}{index}", shape, weight=weight, size=size,
                **shape_params,
            )
            for port_name, selector in (ports or {}).items():
                component.port(port_name, selector)
            names.append(f"{base_name}{index}")
        return names

    def link(self, a: PortEndpoint, b: PortEndpoint) -> "TopologyBuilder":
        """Declare a link between two ports (``"comp.port"`` or tuples)."""
        self._links.append(LinkSpec(self._ref(a), self._ref(b)))
        return self

    def nodes(self, count: int) -> "TopologyBuilder":
        """Declare the default deployment size (the DSL's ``nodes N``)."""
        self._nodes = count
        return self

    def assign(self, rule: Union[str, AssignmentRule]) -> "TopologyBuilder":
        """Choose the node-assignment rule (``proportional`` or ``hash``)."""
        self._assignment = make_assignment(rule) if isinstance(rule, str) else rule
        return self

    # -- construction ----------------------------------------------------------------

    def build(self) -> Assembly:
        """Validate and return the assembly."""
        return Assembly(
            name=self._name,
            components=[builder._spec() for builder in self._components.values()],
            links=self._links,
            assignment=self._assignment,
            total_nodes=self._nodes,
        )

    # -- internals ----------------------------------------------------------------------

    @staticmethod
    def _ref(endpoint: PortEndpoint) -> PortRef:
        if isinstance(endpoint, str):
            return PortRef.parse(endpoint)
        component, port = endpoint
        return PortRef(component, port)
