"""The determinism pass (``DET0xx``): one source scanner, one site table.

The multi-seed evaluation is only honest if seed *s* always denotes the
same run. One :mod:`ast` scanner reads each module of the
:class:`~repro.lint.symbols.SymbolTable` once and records every
nondeterminism *source* together with the function that contains it:

- ``DET001``/``DET002`` — a draw from the interpreter-global ``random``
  module, or an RNG seeded from the OS (``random.Random()``,
  ``SystemRandom``); every draw must flow from :mod:`repro.sim.rng`.
- ``DET003`` — a wall-clock read (``time.time``/``perf_counter``/…,
  ``datetime.now``/…): simulated time is the round counter.
- ``DET004`` — iteration over a bare ``set``/``frozenset``. ``sorted(...)``,
  ``min``/``max`` and membership tests are fine — including the
  *sorted-wrapper idiom*, where a set is materialized into a name and the
  name is re-bound through ``sorted`` a statement or two later
  (``ids = list(view); ids = sorted(ids)``). Names bound to set values are
  tracked per scope, so bare iteration over such a name is caught even away
  from the construction site.
- ``DET005`` — ``dict.popitem()`` (insertion-order coupling).
- ``DET006`` — ``id()``: a heap address, unstable between runs and processes.
- ``DET007`` — ``os.environ`` / ``os.getenv``: the process environment.

Where a source is reported is decided by :data:`SITES`, the one table of
paths: inside its code's *site scope* it is an error at its own line;
outside it, only when an engine-round root (:mod:`repro.lint.roots`) can
reach its function, and then at the first call edge of the shortest
root-to-source chain — the innocent-looking line to edit — with the chain
in the message. A sanctioned file is never reported. Each source yields at
most one finding. A reviewed exception carries an inline pragma
(:mod:`repro.lint.pragmas`) on the source's line, or on the call edge where
a chain is cut.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.diagnostics import ERROR, Diagnostic
from repro.lint.pragmas import is_disabled, parse_pragmas
from repro.lint.roots import ProjectModel
from repro.lint.symbols import ModuleInfo, target_names

#: Packages whose results must be a pure function of (config, seed).
SIM_PATHS = ("sim/", "core/", "gossip/", "faults/", "obs/", "heal/", "perf/", "scale/")

#: Packages whose protocol decisions must not see hash or insertion order.
ORDERING_PATHS = ("gossip/", "core/", "sim/", "heal/")

#: code → (site scope, sanctioned files). ``sim/rng.py`` is where streams
#: are derived; ``obs/spans.py`` is the observability subsystem's one clock,
#: through which every span measurement flows (tests swap it).
SITES: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "DET001": (("",), ("sim/rng.py",)),
    "DET002": (("",), ("sim/rng.py",)),
    "DET003": (SIM_PATHS, ("obs/spans.py",)),
    "DET004": (ORDERING_PATHS, ()),
    "DET005": (ORDERING_PATHS, ()),
    "DET006": ((), ()),
    "DET007": ((), ()),
}

_CLOCK_CALLS = {
    f"time.{name}{suffix}"
    for name in ("time", "monotonic", "perf_counter", "process_time")
    for suffix in ("", "_ns")
} | {
    f"datetime.{cls}.{name}"
    for cls in ("datetime", "date")
    for name in ("now", "utcnow", "today")
}

#: Builtins whose call materializes its argument in iteration order.
_ORDER_SENSITIVE_BUILTINS = {"list", "tuple", "enumerate", "iter", "reversed"}

#: Builtins that consume a set order-insensitively: a set (or a hash-order
#: materialization of one) appearing as their direct argument is fine.
_ORDER_NEUTRAL_CONSUMERS = {
    "sorted",
    "min",
    "max",
    "sum",
    "len",
    "any",
    "all",
    "set",
    "frozenset",
}


@dataclass(frozen=True)
class Source:
    """One nondeterminism source site."""

    code: str
    #: Qualified name of the containing function; ``None`` at module or
    #: class scope (which no root can reach).
    func: Optional[str]
    rel_path: str
    file: str
    line: int
    column: int
    message: str


class _Scope:
    """Per-function (or module) tracking state for the set-order rules."""

    def __init__(self) -> None:
        #: Names currently bound to a bare set/frozenset value.
        self.set_names: Set[str] = set()
        #: Candidate DET004 sources keyed by the name the hash-ordered
        #: materialization was assigned to; withdrawn if the name is later
        #: re-bound through ``sorted`` (or ``.sort()``-ed) in this scope.
        self.pending: Dict[str, List[Source]] = {}


class _Scanner(ast.NodeVisitor):
    """Every source of one module, each tagged with its function."""

    def __init__(self, module: ModuleInfo):
        self.module = module
        self.sources: List[Source] = []
        #: Qualified-name path of the enclosing classes and functions.
        self._names: List[str] = []
        #: Innermost enclosing function's qname (``None`` at module scope).
        self._funcs: List[Optional[str]] = [None]
        #: Scope stack for set-name tracking (module scope at the bottom).
        self.scopes: List[_Scope] = [_Scope()]
        #: Node ids whose DET004 handling happened higher up the tree
        #: (assignment targets, order-neutral consumer arguments).
        self._handled: Set[int] = set()

    def scan(self) -> List[Source]:
        self.visit(self.module.tree)
        self._flush_scope()
        return self.sources

    # -- scopes ---------------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._names.append(node.name)
        self.generic_visit(node)
        self._names.pop()

    def visit_FunctionDef(self, node: ast.AST) -> None:
        self._names.append(node.name)
        info = self.module.functions.get(".".join(self._names))
        self._funcs.append(info.qname if info is not None else None)
        self.scopes.append(_Scope())
        self.generic_visit(node)
        self._flush_scope()
        self._funcs.pop()
        self._names.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _flush_scope(self) -> None:
        scope = self.scopes.pop()
        for name in sorted(scope.pending):
            self.sources.extend(scope.pending[name])

    def _is_set_name(self, name: str) -> bool:
        return any(name in scope.set_names for scope in reversed(self.scopes))

    def _unbind_name(self, name: str) -> None:
        for scope in self.scopes:
            scope.set_names.discard(name)

    def _withdraw_pending(self, name: str) -> None:
        for scope in self.scopes:
            scope.pending.pop(name, None)

    # -- helpers -------------------------------------------------------------

    def _source(self, code: str, node: ast.AST, message: str) -> Source:
        return Source(
            code=code,
            func=self._funcs[-1],
            rel_path=self.module.rel_path,
            file=self.module.file,
            line=getattr(node, "lineno", 0),
            column=getattr(node, "col_offset", -1) + 1,
            message=message,
        )

    def _emit(self, code: str, node: ast.AST, message: str) -> None:
        self.sources.append(self._source(code, node, message))

    def _is_set_valued(self, node: ast.expr) -> bool:
        """Syntactically certain the expression is an unordered set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name) and self._is_set_name(node.id):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    # -- assignments: set-name tracking + the sorted-wrapper idiom -----------

    def visit_Assign(self, node: ast.Assign) -> None:
        self._track_assignment(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._track_assignment([node.target], node.value)
        self.generic_visit(node)

    def _track_assignment(self, targets: List[ast.expr], value: ast.expr) -> None:
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        call = None
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            call = value.func.id
        if call == "sorted":
            # ``items = sorted(items)`` — the sorted-wrapper idiom: any
            # hash-ordered materialization earlier bound to the argument
            # name was a false alarm; the re-bound name is ordered now.
            if value.args and isinstance(value.args[0], ast.Name):
                self._withdraw_pending(value.args[0].id)
            for name in names:
                self._unbind_name(name)
                self._withdraw_pending(name)
            return
        if self._is_set_valued(value):
            self.scopes[-1].set_names.update(names)
            return
        if (
            call in _ORDER_SENSITIVE_BUILTINS
            and value.args
            and self._is_set_valued(value.args[0])
        ):
            # ``items = list(a_set)``: hold the source back — a later
            # ``items = sorted(items)`` / ``items.sort()`` sanctions it.
            self._handled.add(id(value))
            source = self._source("DET004", value, _materialized(call))
            if len(names) == 1:
                self.scopes[-1].pending.setdefault(names[0], []).append(source)
            else:
                self.sources.append(source)
        for name in names:
            self._unbind_name(name)

    # -- sources --------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        target = self.module.external(node.func)
        if target is not None:
            self._external_call(node, target)
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "id" and node.args:
                self._emit(
                    "DET006",
                    node,
                    "id() is a heap address, unstable between runs and "
                    "processes; key on a stable identifier",
                )
            elif func.id in _ORDER_NEUTRAL_CONSUMERS:
                # ``sorted(list({...}))`` and friends: the consumer
                # neutralizes the hash order of its direct argument.
                for arg in node.args[:1]:
                    self._handled.add(id(arg))
            elif (
                func.id in _ORDER_SENSITIVE_BUILTINS
                and id(node) not in self._handled
                and node.args
                and self._is_set_valued(node.args[0])
            ):
                self._emit("DET004", node, _materialized(func.id))
        elif isinstance(func, ast.Attribute):
            # ``items.sort()`` sanctions a pending materialization.
            if func.attr == "sort" and isinstance(func.value, ast.Name):
                self._withdraw_pending(func.value.id)
            elif func.attr == "popitem":
                self._emit(
                    "DET005",
                    node,
                    "popitem() depends on insertion-order bookkeeping; pop an "
                    "explicit deterministic key instead",
                )
        self.generic_visit(node)

    def _external_call(self, node: ast.Call, target: str) -> None:
        if target in _CLOCK_CALLS:
            self._emit(
                "DET003",
                node,
                f"wall-clock read {target}(); simulated logic must use round "
                f"counters",
            )
        elif target == "random.SystemRandom":
            self._emit(
                "DET002", node, "random.SystemRandom is OS-seeded and never reproducible"
            )
        elif target == "random.Random":
            if not node.args and not node.keywords:
                self._emit(
                    "DET002",
                    node,
                    "random.Random() without a seed draws from OS entropy; "
                    "derive the seed from repro.sim.rng streams",
                )
        elif target.startswith("random."):
            self._emit(
                "DET001",
                node,
                f"{target}() uses the interpreter-global RNG; use a named "
                f"stream from repro.sim.rng instead",
            )
        elif target == "os.getenv":
            self._emit("DET007", node, _ENVIRON)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "environ" and self.module.external(node) == "os.environ":
            self._emit("DET007", node, _ENVIRON)
        self.generic_visit(node)

    def _check_iteration(self, iterable: ast.expr) -> None:
        if id(iterable) not in self._handled and self._is_set_valued(iterable):
            self._emit(
                "DET004",
                iterable,
                "iteration over a bare set leaks hash ordering into downstream "
                "decisions; wrap the set in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        # The loop target shadows any tracked set of the same name.
        for name in target_names(node.target):
            self._unbind_name(name)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)


_ENVIRON = (
    "os.environ read makes behavior depend on the process environment; read "
    "configuration once at harness level and pass it down"
)


def _materialized(builtin: str) -> str:
    return (
        f"{builtin}() over a bare set leaks hash ordering into downstream "
        f"decisions; wrap the set in sorted(...)"
    )


def determinism_check(model: ProjectModel) -> List[Diagnostic]:
    """Every DET finding of the project.

    A pragma on a source's own line acknowledges that source wherever it
    would be reported; pragmas at call-edge anchors are left to
    :func:`~repro.lint.pragmas.apply_pragmas`.
    """
    table = model.table
    diagnostics = [
        Diagnostic(
            code="DET000",
            severity=ERROR,
            message=f"cannot parse: {exc.msg}",
            file=file,
            line=exc.lineno or 0,
            column=exc.offset or 0,
        )
        for file, exc in table.unparseable
    ]
    roots = set(model.roots)
    for name in sorted(table.modules):
        module = table.modules[name]
        pragmas = parse_pragmas(module.source)
        for source in _Scanner(module).scan():
            scope, sanctioned = SITES[source.code]
            if source.rel_path in sanctioned or is_disabled(
                pragmas, source.code, source.line
            ):
                continue
            if source.rel_path.startswith(scope):
                where = (source.message, source.file, source.line, source.column)
            elif source.func in model.hot:
                where = _reach(model, roots, source)
            else:
                continue
            diagnostics.append(Diagnostic(source.code, ERROR, *where))
    return diagnostics


def _reach(
    model: ProjectModel, roots: Set[str], source: Source
) -> Tuple[str, str, int, int]:
    """(message, file, line, column) of a hot source outside its site scope:
    the first call edge of the shortest root-to-source chain."""
    functions = model.table.functions
    path = model.graph.shortest_path(roots, source.func)
    if not path:  # the source sits directly in a root
        root = functions[source.func].display()
        message = f"in round hot path {root}: {source.message}"
        return message, source.file, source.line, source.column
    first = path[0]
    chain = " -> ".join(
        [functions[first.caller].display()]
        + [functions[site.callee].display() for site in path]
    )
    message = (
        f"round hot path reaches {source.rel_path}:{source.line} via {chain}: "
        f"{source.message}"
    )
    return message, functions[first.caller].file, first.line, first.column
