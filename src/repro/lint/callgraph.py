"""Call-graph construction over the :class:`~repro.lint.symbols.SymbolTable`.

Python's dynamism means a purely static call graph is necessarily an
approximation; this one is tuned for the determinism/shard-safety passes,
which need *recall* on the engine's round hot paths more than precision:

- ``name(...)`` calls resolve through the module scope and import maps
  (including re-exports through ``__init__`` modules).
- ``self.method(...)`` resolves to the enclosing class's method when it
  exists.
- other ``obj.method(...)`` attribute calls fall back to *name-based
  resolution*: every known method of that name is a candidate callee, as
  long as the name is not so common that the fallback would degenerate
  (bounded by :data:`FALLBACK_LIMIT`). Dynamic dispatch sites that matter —
  ``protocol.step(ctx)``, ``observer.observe(...)`` — are additionally
  covered by the entry-point roots (:mod:`repro.lint.roots`), so a
  dropped fallback edge can narrow a chain but never hides a hot path.
- a nested function/lambda is treated as called by its encloser (closures
  are almost always invoked, directly or as callbacks).
- a project function *passed as a call argument* (``sorted(xs,
  key=keys.key_of)``, ``engine.register(self.on_tick)``) gets a ``ref``
  edge from the passer: callbacks are how the engine dispatches, and a
  nondeterministic key function reaches its consumer all the same.

Cycles are expected (mutual recursion, gossip layers calling back into
views); reachability and the shortest root-to-source chain are plain
breadth-first walks that visit each function once.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.lint.symbols import (
    EXTERNAL_PREFIX,
    FunctionInfo,
    ModuleInfo,
    SymbolTable,
    dotted_of,
    own_nodes,
)

#: Name-based dynamic-dispatch fallback gives up when a method name has
#: more than this many definitions project-wide (``get``, ``run``…): the
#: edges would be noise, and the roots file covers the real dispatch sites.
FALLBACK_LIMIT = 8

#: Method names never worth fallback edges (ubiquitous dunders).
_FALLBACK_SKIP = {
    "__init__",
    "__repr__",
    "__str__",
    "__eq__",
    "__hash__",
    "__len__",
    "__iter__",
    "append",
    "add",
    "get",
    "pop",
    "update",
    "items",
    "keys",
    "values",
    "sort",
    "join",
    "split",
    "copy",
    "extend",
    "clear",
}


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, anchored at its source position."""

    caller: str  # fully qualified caller name
    callee: str  # fully qualified callee name
    line: int
    column: int
    #: How the callee was found: "direct", "self", or "fallback".
    via: str


class CallGraph:
    """Edges between project functions, with call-site positions."""

    def __init__(self, table: SymbolTable):
        self.table = table
        #: caller qname → list of call sites (deterministic order).
        self.edges: Dict[str, List[CallSite]] = {}
        #: caller qname → set of callee qnames, for reachability.
        self.callees: Dict[str, Set[str]] = {}

    @classmethod
    def build(cls, table: SymbolTable) -> "CallGraph":
        graph = cls(table)
        for func in table.iter_functions():
            graph._scan(func)
        return graph

    # -- scanning -------------------------------------------------------------

    def _add(self, caller: FunctionInfo, callee: FunctionInfo, node: ast.AST, via: str) -> None:
        site = CallSite(
            caller=caller.qname,
            callee=callee.qname,
            line=getattr(node, "lineno", caller.line),
            column=getattr(node, "col_offset", -1) + 1,
            via=via,
        )
        self.edges.setdefault(caller.qname, []).append(site)
        self.callees.setdefault(caller.qname, set()).add(callee.qname)

    def _scan(self, func: FunctionInfo) -> None:
        module = self.table.modules.get(func.module)
        if module is None:
            return
        # A nested def is reachable from its encloser.
        for child in ast.iter_child_nodes(func.node):
            for node in ast.walk(child):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested = module.functions.get(f"{func.local_qname}.{node.name}")
                    if nested is not None and nested.qname != func.qname:
                        self._add(func, nested, node, "nested")
        for node in own_nodes(func.node):
            if isinstance(node, ast.Call):
                self._resolve_call(func, module, node)
                self._callback_refs(func, module, node)

    def _resolve_call(
        self, func: FunctionInfo, module: ModuleInfo, node: ast.Call
    ) -> None:
        target = node.func
        if isinstance(target, ast.Name):
            callee = self.table.resolve(module, target.id)
            if callee is not None:
                self._add(func, callee, node, "direct")
            return
        if isinstance(target, ast.Attribute):
            dotted = dotted_of(target)
            if dotted is not None:
                head = dotted.split(".")[0]
                if head == "self" and func.class_name is not None:
                    method = f"{func.class_name}.{dotted.split('.', 1)[1]}"
                    callee = module.functions.get(method)
                    if callee is not None:
                        self._add(func, callee, node, "self")
                        return
                elif head in ("cls", "super"):
                    pass  # fall through to name fallback below
                else:
                    resolved = self.table.resolve(module, dotted)
                    if resolved is not None:
                        self._add(func, resolved, node, "direct")
                        return
                    imported = module.imports.get(head, "")
                    if imported.startswith(EXTERNAL_PREFIX):
                        return  # stdlib/third-party attribute call
            self._fallback(func, target.attr, node)

    def _callback_refs(
        self, func: FunctionInfo, module: ModuleInfo, node: ast.Call
    ) -> None:
        """A function passed as an argument is presumed invoked by someone."""
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            callee: Optional[FunctionInfo] = None
            if isinstance(arg, ast.Name):
                callee = self.table.resolve(module, arg.id)
            elif isinstance(arg, ast.Attribute):
                dotted = dotted_of(arg)
                if dotted is None:
                    continue
                head, _, tail = dotted.partition(".")
                if head == "self" and func.class_name is not None and tail:
                    callee = module.functions.get(f"{func.class_name}.{tail}")
                else:
                    callee = self.table.resolve(module, dotted)
            if callee is not None and callee.qname != func.qname:
                self._add(func, callee, arg, "ref")

    def _fallback(self, func: FunctionInfo, name: str, node: ast.Call) -> None:
        if name in _FALLBACK_SKIP:
            return
        candidates = self.table.by_name.get(name, ())
        if not candidates or len(candidates) > FALLBACK_LIMIT:
            return
        for callee in candidates:
            if callee.class_name is None:
                continue  # plain functions are never attribute-dispatched
            if callee.qname == func.qname:
                continue
            self._add(func, callee, node, "fallback")

    # -- reachability ---------------------------------------------------------

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Every function reachable from ``roots`` (roots included)."""
        seen: Set[str] = set()
        stack = [root for root in roots if root in self.table.functions]
        while stack:
            qname = stack.pop()
            if qname in seen:
                continue
            seen.add(qname)
            stack.extend(self.callees.get(qname, ()))
        return seen

    def shortest_path(self, sources: Iterable[str], target: str) -> List[CallSite]:
        """BFS path (as call sites) from any of ``sources`` to ``target``.

        Returns ``[]`` when the target *is* a source (empty chain) and
        ``None``-equivalent empty list when unreachable — callers check
        membership in :meth:`reachable_from` first.
        """
        sources = [s for s in sources if s in self.table.functions]
        parents: Dict[str, Optional[CallSite]] = {s: None for s in sources}
        queue: List[str] = sorted(sources)
        while queue:
            current = queue.pop(0)
            if current == target:
                path: List[CallSite] = []
                while parents[current] is not None:
                    site = parents[current]
                    path.append(site)
                    current = site.caller
                return list(reversed(path))
            for site in self.edges.get(current, ()):
                if site.callee not in parents:
                    parents[site.callee] = site
                    queue.append(site.callee)
        return []
