"""Component specifications — the distributed first-class entities.

The paper inverts the classic component-based view: "components [are]
collective distributed entities enforcing a given internal structure (a star,
a tree, a ring) which developers can assemble programmatically". A
:class:`ComponentSpec` is the declaration of one such entity: a name, an
elementary shape, a sizing rule, and the ports it offers to the assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import AssemblyError
from repro.core.port import PortSpec
from repro.shapes.base import Shape


@dataclass(frozen=True)
class ComponentSpec:
    """Declaration of one component of an assembly.

    Attributes
    ----------
    name:
        Unique component name within the assembly.
    shape:
        The elementary topology its members self-organize into.
    weight:
        Relative share of the node population under proportional assignment
        (ignored when ``size`` is set).
    size:
        Exact member count; when set, the assignment rule must honour it.
    ports:
        The ports this component exposes, keyed by port name.
    """

    name: str
    shape: Shape
    weight: float = 1.0
    size: Optional[int] = None
    ports: Tuple[PortSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise AssemblyError(
                f"component name must be an identifier, got {self.name!r}"
            )
        if self.size is None and self.weight <= 0:
            raise AssemblyError(
                f"component {self.name!r}: weight must be > 0, got {self.weight}"
            )
        if self.size is not None and self.size < 1:
            raise AssemblyError(
                f"component {self.name!r}: size must be >= 1, got {self.size}"
            )
        seen = set()
        for port in self.ports:
            if port.name in seen:
                raise AssemblyError(
                    f"component {self.name!r}: duplicate port {port.name!r}"
                )
            seen.add(port.name)

    # -- port lookup ---------------------------------------------------------

    def port_map(self) -> Dict[str, PortSpec]:
        return {port.name: port for port in self.ports}

    def port(self, name: str) -> PortSpec:
        for port in self.ports:
            if port.name == name:
                return port
        raise AssemblyError(f"component {self.name!r} has no port {name!r}")

    def has_port(self, name: str) -> bool:
        return any(port.name == name for port in self.ports)
