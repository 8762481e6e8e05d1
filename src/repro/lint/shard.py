"""Shard-safety analysis (``SHD0xx`` rules).

The sharded engine's process backend (``scale/engine.py``'s
``_shard_worker``) runs each shard in its own worker process, and its
correctness gate is digest identity with the inline backend, which shares
one interpreter. Two statically detectable hazards break that gate:

- ``SHD001`` — a round hot path mutates module-level mutable state. A
  module global is process-wide: under one process every node shares it in
  a defined order; under shards each worker gets its own copy mutated in
  its own order, and the copies silently diverge.
- ``SHD002`` — an RNG cached at module or class scope. The ``spawn_seeds``
  ownership rule (see :mod:`repro.sim.rng` and docs/performance.md) makes
  every RNG derive from per-node/per-stream seeds threaded through ``ctx``;
  an RNG living outside that discipline is consumed in arrival order, which
  differs between serial and sharded schedules.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.diagnostics import ERROR, Diagnostic
from repro.lint.determinism import SITES
from repro.lint.roots import ProjectModel
from repro.lint.symbols import FunctionInfo, ModuleInfo, own_nodes, target_names

#: Method names that mutate a list/dict/set receiver in place.
_MUTATORS = {
    "append",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "clear",
    "extend",
    "insert",
    "remove",
    "discard",
    "appendleft",
    "popleft",
}

#: Constructor names whose value is mutable when bound at module scope.
_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque"}

#: RNG-constructing callables that must not be cached at module/class scope.
_RNG_NAMES = {"Random", "SystemRandom", "RandomStreams"}
_RNG_METHODS = {"stream", "fork"}


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
    )


def _module_mutables(module: ModuleInfo) -> Dict[str, int]:
    """Module-level names bound to mutable containers → definition line."""
    mutables: Dict[str, int] = {}
    for stmt in module.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_mutable_value(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                mutables.setdefault(target.id, stmt.lineno)
    return mutables


def _local_bindings(func_node: ast.AST) -> Tuple[Set[str], Set[str]]:
    """(locally bound names, names declared ``global``) of a function."""
    bound: Set[str] = set()
    globals_: Set[str] = set()
    args = func_node.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        bound.add(arg.arg)
    for node in own_nodes(func_node):
        if isinstance(node, ast.Global):
            globals_.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in target_names(target):
                    bound.add(name)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            for name in target_names(target):
                bound.add(name)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            for name in target_names(node.optional_vars):
                bound.add(name)
        elif isinstance(node, ast.NamedExpr):
            bound.add(node.target.id)
    return bound - globals_, globals_


def _global_mutations(
    func: FunctionInfo, mutables: Dict[str, int]
) -> List[Tuple[ast.AST, str, str]]:
    """(site, name, how) for every mutation of a module global in ``func``."""
    local, declared_global = _local_bindings(func.node)
    visible = {
        name for name in mutables if name in declared_global or name not in local
    }
    if not visible and not declared_global:
        return []
    found: List[Tuple[ast.AST, str, str]] = []
    for node in own_nodes(func.node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in visible
                and node.func.attr in _MUTATORS
            ):
                found.append((node, receiver.id, f".{node.func.attr}()"))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in visible
                ):
                    found.append((node, target.value.id, "[...] assignment"))
                elif (
                    isinstance(target, ast.Name)
                    and target.id in declared_global
                ):
                    found.append((node, target.id, "global rebind"))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in visible
                ):
                    found.append((node, target.value.id, "del [...]"))
    return found


def _is_rng_value(module: ModuleInfo, node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    target = module.external(node.func)
    if target in ("random.Random", "random.SystemRandom"):
        return True
    func = node.func
    if isinstance(func, ast.Name) and func.id in _RNG_NAMES:
        return True
    return isinstance(func, ast.Attribute) and func.attr in _RNG_METHODS


def shard_check(model: ProjectModel) -> List[Diagnostic]:
    """All SHD diagnostics for the project."""
    table, hot = model.table, model.hot
    diagnostics: List[Diagnostic] = []
    # SHD001 — module-global mutation from round hot paths.
    for module in (table.modules[name] for name in sorted(table.modules)):
        mutables = _module_mutables(module)
        if not mutables:
            continue
        for func in sorted(module.functions.values(), key=lambda f: f.qname):
            if func.qname not in hot:
                continue
            for site, name, how in _global_mutations(func, mutables):
                diagnostics.append(
                    Diagnostic(
                        code="SHD001",
                        severity=ERROR,
                        message=(
                            f"round hot path {func.display()} mutates "
                            f"module-level mutable {name!r} ({how}); shared "
                            f"state diverges across engine shards — thread it "
                            f"through ctx or per-node state instead"
                        ),
                        file=func.file,
                        line=getattr(site, "lineno", func.line),
                        column=getattr(site, "col_offset", -1) + 1,
                    )
                )
    # SHD002 — RNG cached at module or class scope.
    _, rng_sanctioned = SITES["DET002"]
    for module in (table.modules[name] for name in sorted(table.modules)):
        if module.rel_path in rng_sanctioned:
            continue  # the stream factory itself
        for scope_name, body in _class_and_module_scopes(module):
            for stmt in body:
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                value = stmt.value
                if value is None or not _is_rng_value(module, value):
                    continue
                where = f"class {scope_name}" if scope_name else "module"
                diagnostics.append(
                    Diagnostic(
                        code="SHD002",
                        severity=ERROR,
                        message=(
                            f"RNG constructed at {where} scope in "
                            f"{module.rel_path} outlives the per-node/"
                            f"per-shard ctx; derive it from seed streams "
                            f"(spawn_seeds / RandomStreams.stream) at use "
                            f"time instead"
                        ),
                        file=module.file,
                        line=stmt.lineno,
                        column=stmt.col_offset + 1,
                    )
                )
    return diagnostics


def _class_and_module_scopes(module: ModuleInfo):
    """(class-name-or-None, statement list) for module and class bodies."""
    yield None, module.tree.body
    for stmt in module.tree.body:
        if isinstance(stmt, ast.ClassDef):
            yield stmt.name, stmt.body
