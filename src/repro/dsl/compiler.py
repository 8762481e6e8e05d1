"""Compiler: DSL AST → :class:`~repro.core.Assembly`, and back to source.

Semantic rules enforced here (on top of :meth:`Assembly.validate`):

- shape names must be registered in the component library;
- shape parameters must match the shape factory's signature;
- the reserved parameters ``size`` and ``weight`` configure the component
  itself, everything else is passed to the shape;
- a fixed component size must be feasible for its shape (``RPR105``);
- selectors must parse (``lowest_id``, ``highest_id``, ``hub``, ``rank(K)``);
- links must reference declared components and ports (``RPR101``/``RPR102``)
  and be unique, non-self connections (``RPR103``/``RPR104``);
- the declared node budget must cover every component (``RPR106``);
- the assignment rule, when given, must be known.

Every check emits a coded, located :class:`~repro.diagnostics.Diagnostic`.
By default the first error is raised as a :class:`DslSemanticError` (the
historical fail-fast contract); callers that pass ``diagnostics=[...]`` —
notably ``repro lint`` — get *all* findings collected into that list
instead, with compilation continuing best-effort and returning ``None``
when the program is too broken to produce an assembly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.diagnostics import ERROR, Diagnostic
from repro.errors import AssemblyError, ConfigurationError, DslSemanticError, TopologyError
from repro.core.assembly import Assembly
from repro.core.component import ComponentSpec
from repro.core.link import LinkSpec, PortRef
from repro.core.port import PortSpec, make_selector
from repro.core.roles import make_assignment
from repro.dsl.ast import ComponentDecl, TopologyDecl
from repro.dsl.parser import parse_source
from repro.shapes.registry import make_shape

#: Catch-all code for parameter/name/selector/assignment semantic errors.
GENERIC_CODE = "RPR100"


class DiagnosticSink:
    """Where semantic findings go: raised (default) or collected.

    The compiler reports every violation through :meth:`error`; with no
    backing list the first report raises :class:`DslSemanticError` exactly
    as the compiler always has, so existing callers see no difference.
    """

    def __init__(
        self,
        collected: Optional[List[Diagnostic]] = None,
        file: Optional[str] = None,
    ):
        self.collected = collected
        self.file = file

    @property
    def collecting(self) -> bool:
        return self.collected is not None

    def error(self, message: str, line: int, column: int, code: str = GENERIC_CODE) -> None:
        if self.collected is None:
            raise DslSemanticError(message, line, column, code=code)
        self.collected.append(
            Diagnostic(
                code=code,
                severity=ERROR,
                message=message,
                file=self.file,
                line=line,
                column=column,
            )
        )


def _expand_name(base: str, index: int) -> str:
    return f"{base}{index}"


def _compile_component(decl: ComponentDecl, sink: DiagnosticSink) -> Optional[ComponentSpec]:
    """Lower one component declaration, or ``None`` if it had errors."""
    size = None
    weight = 1.0
    shape_params: Dict[str, Any] = {}
    failed = False
    for param in decl.params:
        if param.name == "size":
            if not isinstance(param.value, int) or isinstance(param.value, bool):
                sink.error(
                    f"component {decl.name!r}: size must be an integer",
                    param.line,
                    param.column,
                )
                failed = True
                continue
            size = param.value
        elif param.name == "weight":
            if not isinstance(param.value, (int, float)) or isinstance(
                param.value, bool
            ):
                sink.error(
                    f"component {decl.name!r}: weight must be numeric",
                    param.line,
                    param.column,
                )
                failed = True
                continue
            weight = float(param.value)
        else:
            shape_params[param.name] = param.value
    try:
        shape = make_shape(decl.shape, **shape_params)
    except ConfigurationError as exc:
        sink.error(str(exc), decl.line, decl.column)
        return None
    ports = []
    for port in decl.ports:
        try:
            selector = make_selector(port.selector)
        except AssemblyError as exc:
            sink.error(str(exc), port.line, port.column)
            failed = True
            continue
        ports.append(PortSpec(port.name, selector))
    if failed:
        return None
    try:
        spec = ComponentSpec(
            name=decl.name, shape=shape, weight=weight, size=size, ports=tuple(ports)
        )
    except AssemblyError as exc:
        sink.error(str(exc), decl.line, decl.column)
        return None
    if spec.size is not None:
        try:
            spec.shape.validate_size(spec.size)
        except TopologyError as exc:
            sink.error(
                f"component {decl.name!r}: {exc}", decl.line, decl.column, code="RPR105"
            )
            return None
    return spec


def _resolve_endpoint(
    component: str,
    index,
    port: str,
    replica_map: Dict[str, list],
    decl,
    sink: DiagnosticSink,
) -> list:
    """Resolve one link endpoint to the list of concrete port refs."""
    if component in replica_map:
        names = replica_map[component]
        if index == "*":
            return [PortRef(name, port) for name in names]
        if index is None:
            sink.error(
                f"{component!r} is replicated ×{len(names)}: address it as "
                f"{component}[i].{port} or fan out with {component}[*].{port}",
                decl.line,
                decl.column,
                code="RPR108",
            )
            return []
        if not 0 <= index < len(names):
            sink.error(
                f"replica index {component}[{index}] out of range "
                f"(0..{len(names) - 1})",
                decl.line,
                decl.column,
                code="RPR108",
            )
            return []
        return [PortRef(names[index], port)]
    if index is not None:
        sink.error(
            f"{component!r} is not replicated; drop the [{index}] index",
            decl.line,
            decl.column,
            code="RPR108",
        )
        return []
    return [PortRef(component, port)]


def _check_link_refs(
    a_ref: PortRef,
    b_ref: PortRef,
    declared_ports: Dict[str, Set[str]],
    decl,
    sink: DiagnosticSink,
) -> bool:
    """Validate one concrete link against the declared components/ports."""
    ok = True
    for ref in (a_ref, b_ref):
        ports = declared_ports.get(ref.component)
        if ports is None:
            sink.error(
                f"link {a_ref} -- {b_ref} references unknown component "
                f"{ref.component!r}",
                decl.line,
                decl.column,
                code="RPR101",
            )
            ok = False
        elif ref.port not in ports:
            sink.error(
                f"link {a_ref} -- {b_ref} references unknown port {ref!s}",
                decl.line,
                decl.column,
                code="RPR102",
            )
            ok = False
    if a_ref == b_ref:
        sink.error(
            f"link endpoints must differ, got {a_ref} twice",
            decl.line,
            decl.column,
            code="RPR104",
        )
        ok = False
    return ok


def compile_ast(
    tree: TopologyDecl,
    diagnostics: Optional[List[Diagnostic]] = None,
    file: Optional[str] = None,
) -> Optional[Assembly]:
    """Lower a parsed topology declaration to a validated assembly.

    Replication sugar is expanded here: ``component shard[4] : …`` becomes
    components ``shard0 .. shard3``; a link endpoint ``shard[*].head`` fans
    the link out to every replica.

    With ``diagnostics`` set to a list, semantic errors are appended to it
    (as coded :class:`~repro.diagnostics.Diagnostic` records, located at
    ``file``) instead of raised, and as much of the program as possible is
    still compiled; the return value is ``None`` whenever any error was
    found. Without it, the first error raises :class:`DslSemanticError`.
    """
    sink = DiagnosticSink(diagnostics, file)
    before = len(diagnostics) if diagnostics is not None else 0
    components: List[ComponentSpec] = []
    #: Component name → its declared port names, including failed components
    #: (so one bad shape parameter does not cascade into bogus unknown-
    #: component errors on every link that references it).
    declared_ports: Dict[str, Set[str]] = {}
    replica_map: Dict[str, list] = {}
    for decl in tree.components:
        expanded = (
            [decl.name]
            if decl.replicas is None
            else [_expand_name(decl.name, index) for index in range(decl.replicas)]
        )
        clash = next(
            (
                name
                for name in dict.fromkeys([decl.name, *expanded])
                if name in declared_ports
            ),
            None,
        )
        if clash is not None:
            sink.error(
                f"duplicate component {clash!r}", decl.line, decl.column, code="RPR107"
            )
            continue
        port_names = {port.name for port in decl.ports}
        if decl.replicas is not None:
            replica_map[decl.name] = expanded
            declared_ports[decl.name] = port_names
        for name in expanded:
            declared_ports[name] = port_names
        spec = _compile_component(decl, sink)
        if spec is None:
            continue
        if decl.replicas is None:
            components.append(spec)
            continue
        for name in expanded:
            components.append(
                ComponentSpec(
                    name=name,
                    shape=spec.shape,
                    weight=spec.weight,
                    size=spec.size,
                    ports=spec.ports,
                )
            )
    if not tree.components:
        sink.error(
            f"assembly {tree.name!r} declares no components",
            tree.line,
            tree.column,
            code="RPR109",
        )
    links: List[LinkSpec] = []
    seen_links: Set[LinkSpec] = set()
    for decl in tree.links:
        a_refs = _resolve_endpoint(
            decl.a_component, decl.a_index, decl.a_port, replica_map, decl, sink
        )
        b_refs = _resolve_endpoint(
            decl.b_component, decl.b_index, decl.b_port, replica_map, decl, sink
        )
        if len(a_refs) > 1 and len(b_refs) > 1:
            sink.error(
                "at most one side of a link may fan out with [*]",
                decl.line,
                decl.column,
                code="RPR108",
            )
            continue
        for a_ref in a_refs:
            for b_ref in b_refs:
                if not _check_link_refs(a_ref, b_ref, declared_ports, decl, sink):
                    continue
                link = LinkSpec(a_ref, b_ref)
                if link in seen_links:
                    sink.error(
                        f"duplicate link {link}", decl.line, decl.column, code="RPR103"
                    )
                    continue
                seen_links.add(link)
                links.append(link)
    assignment = None
    if tree.assign is not None:
        try:
            assignment = make_assignment(tree.assign)
        except AssemblyError as exc:
            sink.error(str(exc), tree.line, tree.column)
    if tree.nodes is not None and components:
        minimum = sum(spec.size or 1 for spec in components)
        if tree.nodes < minimum:
            sink.error(
                f"assembly {tree.name!r} needs at least {minimum} nodes, "
                f"got total_nodes={tree.nodes}",
                tree.line,
                tree.column,
                code="RPR106",
            )
    if sink.collecting and len(diagnostics) > before:
        return None
    try:
        return Assembly(
            name=tree.name,
            components=components,
            links=links,
            assignment=assignment,
            total_nodes=tree.nodes,
        )
    except AssemblyError as exc:
        # Backstop: anything the pre-checks above did not anticipate.
        sink.error(str(exc), tree.line, tree.column)
        return None


def compile_source(
    source: str,
    diagnostics: Optional[List[Diagnostic]] = None,
    file: Optional[str] = None,
) -> Optional[Assembly]:
    """Parse and compile DSL text in one step (same contract as :func:`compile_ast`)."""
    return compile_ast(parse_source(source), diagnostics=diagnostics, file=file)


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return repr(value)


def to_source(assembly: Assembly, indent: str = "    ") -> str:
    """Pretty-print an assembly back to DSL text.

    The output re-parses to an equal assembly (round-trip property), which
    makes DSL files a faithful serialization format for topologies built
    with the :class:`~repro.dsl.builder.TopologyBuilder`.
    """
    lines = [f"topology {assembly.name} {{"]
    if assembly.total_nodes is not None:
        lines.append(f"{indent}nodes {assembly.total_nodes}")
    if assembly.assignment.name:
        lines.append(f"{indent}assign {assembly.assignment.name}")
    for spec in assembly.components.values():
        params = []
        if spec.size is not None:
            params.append(f"size = {spec.size}")
        elif spec.weight != 1.0:
            params.append(f"weight = {_format_value(spec.weight)}")
        for name, value in sorted(spec.shape.params().items()):
            params.append(f"{name} = {_format_value(value)}")
        header = f"{indent}component {spec.name} : {spec.shape.name}"
        if params:
            header += f"({', '.join(params)})"
        if spec.ports:
            lines.append(header + " {")
            for port in spec.ports:
                lines.append(f"{indent}{indent}port {port.name} : {port.selector.spec()}")
            lines.append(f"{indent}}}")
        else:
            lines.append(header)
    for link in assembly.links:
        lines.append(f"{indent}link {link.a} -- {link.b}")
    lines.append("}")
    return "\n".join(lines) + "\n"
