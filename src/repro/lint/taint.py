"""Interprocedural nondeterminism taint propagation (``DET1xx`` rules).

The per-file ``DET0xx`` rules check *sites*; these rules check *reach*:
a nondeterminism source anywhere in the project is an error if any engine
round entry point (:mod:`repro.lint.roots`) can transitively call into it
— even when every intermediate call site looks clean, and even when the
source lives in a package the per-file path scoping does not cover. This
is the property a sharded multi-worker engine needs: whatever executes
under a round must be a pure function of ``(config, seed, round)``, or
serial and sharded runs stop producing identical digests.

Source categories, with the code each maps to:

========================  =======  ==========================================
category                  code     examples
========================  =======  ==========================================
wall clock                DET101   ``time.time()``, ``datetime.now()``
nondeterministic RNG      DET102   ``random.random()``, unseeded ``Random()``
unordered iteration       DET103   ``for x in some_set``, ``d.popitem()``
object identity           DET104   ``id(obj)`` (CPython heap addresses)
process environment       DET105   ``os.environ[...]``, ``os.getenv(...)``
========================  =======  ==========================================

Sanctioned sites keep their exemptions: ``sim/rng.py`` may construct RNGs
(it is where streams are derived), ``obs/spans.py`` may read the clock
(the observability subsystem's single clock site).

Findings anchor at the *first call edge* of the shortest root-to-source
chain — the call site that looks innocent — and the message spells out the
whole chain down to the source location. A source sitting directly inside
a root function is left to its per-file twin rule when one covers that
path, and reported here only when none does.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.diagnostics import ERROR, Diagnostic
from repro.lint.callgraph import CallGraph, CallSite, _dotted_of
from repro.lint.determinism import (
    ORDERING_PATHS,
    RNG_MODULE,
    _WALLCLOCK_DATETIME_ATTRS,
    _WALLCLOCK_TIME_ATTRS,
    _wallclock_forbidden,
)
from repro.lint.symbols import (
    EXTERNAL_PREFIX,
    FunctionInfo,
    ModuleInfo,
    SymbolTable,
)

#: Files allowed to read the wall clock (see docs/lint.md / DET003). The
#: live UDP runtime and its swarm harness are wall-clock-*paced* by design
#: (round tickers, join deadlines, supervisor polls); their clock reads are
#: confined to the reviewed ``_now``/``_sleep`` helpers and never feed
#: protocol state, which stays under full taint scrutiny via the
#: ``runtime/net.py`` roots.
CLOCK_SANCTIONED = (
    "obs/spans.py",
    "runtime/net.py",
    "runtime/swarm.py",
    # The telemetry HTTP thread (stdlib http.server reads the clock for
    # request logging/timeouts) and the Lamport clock module (purely
    # logical, but lives with the runtime's clock discipline) are
    # observation-side by construction: neither feeds protocol state.
    "runtime/telemetry.py",
    "runtime/lamport.py",
)

#: category → diagnostic code.
CATEGORY_CODES = {
    "wallclock": "DET101",
    "rng": "DET102",
    "unordered": "DET103",
    "object-id": "DET104",
    "environ": "DET105",
}

_ORDER_SENSITIVE_BUILTINS = {"list", "tuple", "enumerate", "iter", "reversed"}


@dataclass(frozen=True)
class Source:
    """One direct nondeterminism source site inside a function."""

    category: str
    func: str  # qname of the containing function
    rel_path: str
    file: str
    line: int
    column: int
    description: str


def _external_target(module: ModuleInfo, node: ast.expr) -> Optional[str]:
    """The stdlib dotted name a call target denotes, if resolvable.

    ``time.perf_counter`` → ``time.perf_counter`` (via ``import time``),
    ``perf_counter`` → ``time.perf_counter`` (via a ``from`` import),
    ``dt.datetime.now`` → ``datetime.datetime.now``.
    """
    dotted = _dotted_of(node) if not isinstance(node, ast.Name) else node.id
    if dotted is None:
        return None
    head, _, tail = dotted.partition(".")
    target = module.imports.get(head)
    if target is None or not target.startswith(EXTERNAL_PREFIX):
        return None
    base = target[len(EXTERNAL_PREFIX) :]
    return f"{base}.{tail}" if tail else base


def _is_set_valued(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class _SourceScanner:
    """Direct sources of one function body (nested defs excluded)."""

    def __init__(self, table: SymbolTable):
        self.table = table

    def scan(self, func: FunctionInfo) -> List[Source]:
        module = self.table.modules.get(func.module)
        if module is None:
            return []
        sources: List[Source] = []

        def emit(category: str, node: ast.AST, description: str) -> None:
            sources.append(
                Source(
                    category=category,
                    func=func.qname,
                    rel_path=func.rel_path,
                    file=func.file,
                    line=getattr(node, "lineno", func.line),
                    column=getattr(node, "col_offset", -1) + 1,
                    description=description,
                )
            )

        clock_ok = func.rel_path in CLOCK_SANCTIONED
        rng_ok = func.rel_path == RNG_MODULE
        for node in _own_nodes(func.node):
            if isinstance(node, ast.Call):
                self._scan_call(node, module, emit, clock_ok, rng_ok)
            elif isinstance(node, ast.For):
                if _is_set_valued(node.iter):
                    emit("unordered", node.iter, "iteration over a bare set")
            elif isinstance(node, ast.comprehension):
                if _is_set_valued(node.iter):
                    emit(
                        "unordered",
                        node.iter,
                        "comprehension over a bare set",
                    )
            elif isinstance(node, ast.Attribute) and node.attr == "environ":
                target = _external_target(module, node)
                if target == "os.environ":
                    emit("environ", node, "os.environ read")
        return sources

    def _scan_call(self, node, module, emit, clock_ok, rng_ok) -> None:
        target = _external_target(module, node.func)
        if target is not None:
            base, _, attr = target.partition(".")
            if base == "time" and attr in _WALLCLOCK_TIME_ATTRS and not clock_ok:
                emit("wallclock", node, f"wall-clock read time.{attr}()")
            elif (
                base == "datetime"
                and target.split(".")[-1] in _WALLCLOCK_DATETIME_ATTRS
                and not clock_ok
            ):
                emit("wallclock", node, f"wall-clock read {target}()")
            elif base == "random" and not rng_ok:
                fn = attr or base
                if fn == "SystemRandom":
                    emit("rng", node, "OS-seeded random.SystemRandom()")
                elif fn == "Random":
                    if not node.args and not node.keywords:
                        emit("rng", node, "unseeded random.Random()")
                elif attr:
                    emit("rng", node, f"interpreter-global random.{attr}()")
            elif base == "os" and attr == "getenv":
                emit("environ", node, "os.getenv() read")
        func_node = node.func
        if isinstance(func_node, ast.Name):
            if func_node.id == "id" and node.args:
                emit("object-id", node, "id() object identity")
            elif (
                func_node.id in _ORDER_SENSITIVE_BUILTINS
                and node.args
                and _is_set_valued(node.args[0])
            ):
                emit(
                    "unordered",
                    node,
                    f"{func_node.id}() materializes a bare set in hash order",
                )
        elif isinstance(func_node, ast.Attribute) and func_node.attr == "popitem":
            emit("unordered", node, "dict.popitem() insertion-order coupling")


def _own_nodes(func_node: ast.AST) -> Iterable[ast.AST]:
    """Every node of the function body, nested def/class bodies excluded."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func_node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _per_file_twin_covers(category: str, rel_path: str) -> bool:
    """Would a per-file DET0xx rule already flag this source at its site?"""
    if category == "wallclock":
        return _wallclock_forbidden(rel_path)
    if category == "rng":
        return rel_path != RNG_MODULE  # DET001/DET002 apply everywhere else
    if category == "unordered":
        return any(rel_path.startswith(p) for p in ORDERING_PATHS)
    return False  # object-id / environ have no per-file twin


def collect_sources(table: SymbolTable) -> List[Source]:
    """Every direct nondeterminism source in the project, sorted."""
    scanner = _SourceScanner(table)
    sources: List[Source] = []
    for func in table.iter_functions():
        sources.extend(scanner.scan(func))
    return sorted(sources, key=lambda s: (s.rel_path, s.line, s.column, s.category))


def taint_check(
    table: SymbolTable,
    graph: CallGraph,
    roots: Sequence[str],
    hot: Optional[Set[str]] = None,
) -> List[Diagnostic]:
    """DET1xx diagnostics: sources reachable from engine-round roots."""
    if hot is None:
        hot = graph.reachable_from(roots)
    diagnostics: List[Diagnostic] = []
    seen: Set[tuple] = set()
    root_set = set(roots)
    for source in collect_sources(table):
        if source.func not in hot:
            continue
        code = CATEGORY_CODES[source.category]
        key = (code, source.rel_path, source.line, source.column)
        if key in seen:
            continue
        seen.add(key)
        path = graph.shortest_path(root_set, source.func)
        if not path and source.func in root_set:
            # Direct source inside a root: the per-file twin owns it when
            # its path scoping applies; report here only the blind spots.
            if _per_file_twin_covers(source.category, source.rel_path):
                continue
            root_info = table.functions[source.func]
            diagnostics.append(
                Diagnostic(
                    code=code,
                    severity=ERROR,
                    message=(
                        f"{source.description} directly in round hot path "
                        f"{root_info.display()}"
                    ),
                    file=source.file,
                    line=source.line,
                    column=source.column,
                )
            )
            continue
        if not path:
            continue  # reachable only through edges BFS from roots missed
        chain = _format_chain(table, path)
        first = path[0]
        caller = table.functions[first.caller]
        diagnostics.append(
            Diagnostic(
                code=code,
                severity=ERROR,
                message=(
                    f"round hot path reaches {source.description} at "
                    f"{source.rel_path}:{source.line} via {chain}"
                ),
                file=caller.file,
                line=first.line,
                column=first.column,
            )
        )
    return diagnostics


def _format_chain(table: SymbolTable, path: List[CallSite]) -> str:
    names = [table.functions[path[0].caller].display()]
    names.extend(table.functions[site.callee].display() for site in path)
    return " -> ".join(names)
