"""Prong 2: the determinism invariant linter (``DET0xx`` rules).

An :mod:`ast`-based checker over the framework's *own* Python source. The
multi-seed evaluation is only honest if seed *s* always denotes the same
random universe; these rules machine-enforce the conventions that keep it
so as the codebase grows:

- ``DET001``/``DET002`` — every random draw must flow from the seed-derived
  streams of :mod:`repro.sim.rng`: no interpreter-global ``random.*`` calls
  and no unseeded ``random.Random()``/``SystemRandom`` anywhere outside
  that module.
- ``DET003`` — no wall-clock reads in simulation-facing packages (``sim``,
  ``core``, ``gossip``, ``faults``, ``obs``, ``heal``, ``perf``,
  ``scale``): simulated time is the round counter. Timing belongs to the
  observability subsystem's single sanctioned clock site
  (``obs/spans.py``) alone.
- ``DET004`` — no iteration over bare ``set``/``frozenset`` values in
  ordering-sensitive packages (``gossip``, ``core``, ``sim``, ``heal``): hash order
  must never feed a view merge or a stochastic choice. ``sorted(...)``,
  ``min``/``max``, and membership tests are all fine — including the
  *sorted-wrapper idiom*, where a set is materialized into a name and the
  name is re-bound through ``sorted`` a statement or two later
  (``ids = list(view); ids = sorted(ids)``). The visitor tracks names
  bound to set values, so bare iteration over such a name is caught even
  away from the construction site.
- ``DET005`` — no ``dict.popitem()`` in those packages (insertion-order
  coupling in layer exchanges).

Inline pragmas (``# repro-lint: disable=DET004``, see
:mod:`repro.lint.pragmas`) acknowledge a reviewed exception at its line;
``respect_pragmas=False`` (CLI ``--no-pragmas``) runs the strict sweep.

Paths are interpreted relative to the ``repro`` package root, so the rules
apply identically whether the tree is linted in-place or from an sdist.
The interprocedural continuation of these rules — sources reached *across*
function and module boundaries — lives in :mod:`repro.lint.taint`.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.diagnostics import ERROR, Diagnostic, sort_diagnostics

#: The only module allowed to touch the ``random`` module directly.
RNG_MODULE = "sim/rng.py"

#: Packages where wall-clock reads are forbidden (DET003): their results
#: must be a pure function of (config, seed).
WALLCLOCK_PATHS = (
    "sim/",
    "core/",
    "gossip/",
    "faults/",
    "obs/",
    "heal/",
    "perf/",
    "scale/",
)

#: Sanctioned exceptions inside WALLCLOCK_PATHS. ``obs/spans.py`` is the
#: observability subsystem's one clock site — every span measurement flows
#: through its ``wall_clock``, so instrumented timing stays auditable and
#: injectable (tests swap the clock) while the rest of ``obs`` remains
#: simulation-pure.
WALLCLOCK_EXEMPT = ("obs/spans.py",)

#: Packages where set-iteration order and popitem are forbidden (DET004/005).
ORDERING_PATHS = ("gossip/", "core/", "sim/", "heal/")

_WALLCLOCK_TIME_ATTRS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
}
_WALLCLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}

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


def _in_paths(rel_path: str, prefixes: Sequence[str]) -> bool:
    return any(rel_path.startswith(prefix) for prefix in prefixes)


def _wallclock_forbidden(rel_path: str) -> bool:
    return (
        _in_paths(rel_path, WALLCLOCK_PATHS) and rel_path not in WALLCLOCK_EXEMPT
    )


class _Scope:
    """Per-function (or module) tracking state for the set-order rules."""

    def __init__(self) -> None:
        #: Names currently bound to a bare set/frozenset value.
        self.set_names: Set[str] = set()
        #: Candidate DET004 findings keyed by the name the hash-ordered
        #: materialization was assigned to; withdrawn if the name is later
        #: re-bound through ``sorted`` (or ``.sort()``-ed) in this scope.
        self.pending: Dict[str, List[Diagnostic]] = {}


class _DeterminismVisitor(ast.NodeVisitor):
    """One file's worth of DET findings."""

    def __init__(self, rel_path: str, file: Optional[str]):
        self.rel_path = rel_path
        self.file = file
        self.diagnostics: List[Diagnostic] = []
        #: Local names bound to the ``random`` module (``import random``,
        #: ``import random as rnd``).
        self.random_aliases: Set[str] = set()
        #: Local names for ``random.Random`` / functions imported from random.
        self.from_random: Set[str] = set()
        #: Local names bound to the ``time`` / ``datetime`` modules.
        self.time_aliases: Set[str] = set()
        self.datetime_aliases: Set[str] = set()
        #: Names imported from datetime (``datetime``, ``date`` classes).
        self.datetime_classes: Set[str] = set()
        #: Scope stack for set-name tracking (module scope at the bottom).
        self.scopes: List[_Scope] = [_Scope()]
        #: Node ids whose DET004 handling happened higher up the tree
        #: (assignment targets, order-neutral consumer arguments).
        self._handled: Set[int] = set()

    # -- bookkeeping ---------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_aliases.add(bound)
            elif alias.name == "time":
                self.time_aliases.add(bound)
            elif alias.name == "datetime":
                self.datetime_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                self.from_random.add(alias.asname or alias.name)
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self.datetime_classes.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- scope handling -------------------------------------------------------

    def _enter_scope(self, node: ast.AST) -> None:
        self.scopes.append(_Scope())
        self.generic_visit(node)
        self._flush_scope()

    def _flush_scope(self) -> None:
        scope = self.scopes.pop()
        for name in sorted(scope.pending):
            self.diagnostics.extend(scope.pending[name])

    def finish(self) -> None:
        """Flush the module scope; call exactly once after ``visit``."""
        while self.scopes:
            self._flush_scope()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope(node)

    def _is_set_name(self, name: str) -> bool:
        return any(name in scope.set_names for scope in reversed(self.scopes))

    def _bind_set_names(self, names: Iterable[str]) -> None:
        self.scopes[-1].set_names.update(names)

    def _unbind_name(self, name: str) -> None:
        for scope in self.scopes:
            scope.set_names.discard(name)

    def _withdraw_pending(self, name: str) -> None:
        for scope in self.scopes:
            scope.pending.pop(name, None)

    # -- helpers -------------------------------------------------------------

    def _emit(self, code: str, message: str, node: ast.AST) -> None:
        self.diagnostics.append(self._diag(code, message, node))

    def _diag(self, code: str, message: str, node: ast.AST) -> Diagnostic:
        return Diagnostic(
            code=code,
            severity=ERROR,
            message=message,
            file=self.file,
            line=getattr(node, "lineno", 0),
            column=getattr(node, "col_offset", -1) + 1,
        )

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

    def _is_sorted_call(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
        )

    def _ordering_applies(self) -> bool:
        return _in_paths(self.rel_path, ORDERING_PATHS)

    # -- assignments: set-name tracking + the sorted-wrapper idiom -----------

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._ordering_applies():
            self._track_assignment(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._ordering_applies() and node.value is not None:
            self._track_assignment([node.target], node.value)
        self.generic_visit(node)

    def _track_assignment(
        self, targets: List[ast.expr], value: ast.expr
    ) -> None:
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if self._is_sorted_call(value):
            # ``items = sorted(items)`` — the sorted-wrapper idiom: any
            # hash-ordered materialization earlier bound to the argument
            # name was a false alarm; the re-bound name is ordered now.
            args = value.args
            if args and isinstance(args[0], ast.Name):
                self._withdraw_pending(args[0].id)
            for name in names:
                self._unbind_name(name)
                self._withdraw_pending(name)
            return
        if self._is_set_valued(value):
            self._bind_set_names(names)
            return
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _ORDER_SENSITIVE_BUILTINS
            and value.args
            and self._is_set_valued(value.args[0])
        ):
            # ``items = list(a_set)``: hold the finding back — a later
            # ``items = sorted(items)`` / ``items.sort()`` sanctions it.
            self._handled.add(id(value))
            diag = self._diag(
                "DET004",
                f"{value.func.id}() over a bare set leaks hash ordering into "
                f"downstream decisions; wrap the set in sorted(...)",
                value,
            )
            if len(names) == 1:
                self.scopes[-1].pending.setdefault(names[0], []).append(diag)
            else:
                self.diagnostics.append(diag)
        for name in names:
            self._unbind_name(name)

    # -- rules ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        in_rng_module = self.rel_path == RNG_MODULE
        func = node.func
        # DET001 / DET002: draws outside the seeded-stream discipline.
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base, attr = func.value.id, func.attr
            if base in self.random_aliases and not in_rng_module:
                if attr == "SystemRandom":
                    self._emit(
                        "DET002",
                        "random.SystemRandom is OS-seeded and never reproducible",
                        node,
                    )
                elif attr == "Random":
                    if not node.args and not node.keywords:
                        self._emit(
                            "DET002",
                            "random.Random() without a seed draws from OS entropy; "
                            "derive the seed from repro.sim.rng streams",
                            node,
                        )
                else:
                    self._emit(
                        "DET001",
                        f"direct random.{attr}() uses the interpreter-global RNG; "
                        f"use a named stream from repro.sim.rng instead",
                        node,
                    )
            # DET003: wall clock in simulation paths.
            if _wallclock_forbidden(self.rel_path):
                if base in self.time_aliases and attr in _WALLCLOCK_TIME_ATTRS:
                    self._emit(
                        "DET003",
                        f"wall-clock read time.{attr}() in a simulation path; "
                        f"simulated logic must use round counters",
                        node,
                    )
                elif (
                    base in self.datetime_classes
                    and attr in _WALLCLOCK_DATETIME_ATTRS
                ):
                    self._emit(
                        "DET003",
                        f"wall-clock read {base}.{attr}() in a simulation path; "
                        f"simulated logic must use round counters",
                        node,
                    )
        # datetime.datetime.now() spelled through the module.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in self.datetime_aliases
            and func.value.attr in ("datetime", "date")
            and func.attr in _WALLCLOCK_DATETIME_ATTRS
            and _wallclock_forbidden(self.rel_path)
        ):
            self._emit(
                "DET003",
                f"wall-clock read datetime.{func.value.attr}.{func.attr}() in a "
                f"simulation path; simulated logic must use round counters",
                node,
            )
        # Bare names imported from random: ``from random import choice``.
        if (
            isinstance(func, ast.Name)
            and func.id in self.from_random
            and not in_rng_module
        ):
            if func.id in ("Random", "SystemRandom"):
                if func.id == "SystemRandom" or (not node.args and not node.keywords):
                    self._emit(
                        "DET002",
                        f"{func.id}() constructed without a derived seed",
                        node,
                    )
            else:
                self._emit(
                    "DET001",
                    f"{func.id}() imported from random uses the interpreter-global "
                    f"RNG; use a named stream from repro.sim.rng instead",
                    node,
                )
        if self._ordering_applies():
            if isinstance(func, ast.Name):
                if func.id in _ORDER_NEUTRAL_CONSUMERS:
                    # ``sorted(list({...}))`` and friends: the consumer
                    # neutralizes the hash order of its direct argument.
                    for arg in node.args[:1]:
                        self._handled.add(id(arg))
                # DET004: list(set(...)) and friends materialize hash order.
                if (
                    func.id in _ORDER_SENSITIVE_BUILTINS
                    and id(node) not in self._handled
                    and node.args
                    and self._is_set_valued(node.args[0])
                ):
                    self._emit(
                        "DET004",
                        f"{func.id}() over a bare set leaks hash ordering into "
                        f"downstream decisions; wrap the set in sorted(...)",
                        node,
                    )
            if isinstance(func, ast.Attribute):
                # ``items.sort()`` sanctions a pending materialization.
                if func.attr == "sort" and isinstance(func.value, ast.Name):
                    self._withdraw_pending(func.value.id)
                # DET005: dict.popitem().
                if func.attr == "popitem":
                    self._emit(
                        "DET005",
                        "popitem() depends on insertion-order bookkeeping; pop an "
                        "explicit deterministic key instead",
                        node,
                    )
        self.generic_visit(node)

    def _check_iteration(self, iterable: ast.expr) -> None:
        if id(iterable) in self._handled:
            return
        if self._is_set_valued(iterable):
            self._emit(
                "DET004",
                "iteration over a bare set leaks hash ordering into downstream "
                "decisions; wrap the set in sorted(...)",
                iterable,
            )

    def visit_For(self, node: ast.For) -> None:
        if self._ordering_applies():
            self._check_iteration(node.iter)
            # The loop target shadows any tracked set of the same name.
            for name in _names_of(node.target):
                self._unbind_name(name)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if self._ordering_applies():
            self._check_iteration(node.iter)
        self.generic_visit(node)


def _names_of(target: ast.expr) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_names_of(element))
        return names
    return []


def lint_python_source(
    source: str,
    rel_path: str,
    file: Optional[str] = None,
    respect_pragmas: bool = True,
) -> List[Diagnostic]:
    """DET diagnostics for one Python source text.

    ``rel_path`` is the path relative to the ``repro`` package root (e.g.
    ``gossip/views.py``) and selects which rule sets apply; ``file`` is the
    on-disk path reported in diagnostics (defaults to ``rel_path``).
    ``respect_pragmas=False`` ignores inline ``# repro-lint:`` pragmas.
    """
    if file is None:
        file = rel_path
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Diagnostic(
                code="DET001",
                severity=ERROR,
                message=f"cannot parse for determinism checks: {exc.msg}",
                file=file,
                line=exc.lineno or 0,
                column=exc.offset or 0,
            )
        ]
    visitor = _DeterminismVisitor(rel_path, file)
    visitor.visit(tree)
    visitor.finish()
    diagnostics = visitor.diagnostics
    if respect_pragmas:
        from repro.lint.pragmas import apply_pragmas, parse_pragmas

        diagnostics = apply_pragmas(diagnostics, parse_pragmas(source))
    return sort_diagnostics(diagnostics)


def package_root() -> str:
    """The directory of the installed ``repro`` package."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def iter_python_files(root: Optional[str] = None) -> Iterable[str]:
    """Every ``.py`` file under the package root, deterministically ordered."""
    base = root or package_root()
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def self_check(
    root: Optional[str] = None, respect_pragmas: bool = True
) -> List[Diagnostic]:
    """Run the determinism linter over the framework's own source tree."""
    base = root or package_root()
    diagnostics: List[Diagnostic] = []
    for path in iter_python_files(base):
        rel_path = os.path.relpath(path, base).replace(os.sep, "/")
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        diagnostics.extend(
            lint_python_source(
                source, rel_path, file=path, respect_pragmas=respect_pragmas
            )
        )
    return sort_diagnostics(diagnostics)
