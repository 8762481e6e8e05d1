"""API surface pinning — the ``API001`` no-new-kwargs rule.

The engine entry points were collapsed behind one factory
(:func:`repro.runtime.api.make_runner`) and one consolidated record
(:class:`repro.runtime.api.RunnerConfig`). What keeps that consolidation
from eroding is this rule: the field lists of the public configuration
dataclasses are *pinned* here, and ``repro lint --deep`` fails when any of
them drifts.

- A new field on a **component** record (``GossipParams``,
  ``TransportCosts``, ``ShardPlan``) is the anti-pattern the redesign
  removed — new knobs belong on ``RunnerConfig``, where every runner kind
  sees them.
- A new field on ``RunnerConfig`` itself is legitimate *API growth* and
  must update the pin in the same change, making the surface diff explicit
  in review instead of buried in a dataclass default.

The check is purely syntactic (annotated assignments of the pinned
``ClassDef`` bodies in the already-parsed symbol table) — nothing is
imported, so a broken module cannot take the linter down with it.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Tuple

from repro.diagnostics import Diagnostic
from repro.lint.symbols import SymbolTable

#: The pinned public configuration surfaces:
#: ``(rel_path, class_name) -> expected annotated field names, in order``.
PINNED_SURFACES: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("sim/config.py", "GossipParams"): (
        "view_size",
        "gossip_size",
        "healer",
        "swapper",
    ),
    ("sim/config.py", "TransportCosts"): (
        "header_bytes",
        "descriptor_bytes",
    ),
    ("scale/engine.py", "ShardPlan"): (
        "n_nodes",
        "n_shards",
    ),
    ("runtime/api.py", "RunnerConfig"): (
        "kind",
        "n_nodes",
        "seed",
        "shape",
        "workload",
        "gossip",
        "costs",
        "loss_rate",
        "max_rounds",
        "backend",
        "n_shards",
        "mode",
        "bind_host",
        "port",
        "node_index",
        "rendezvous",
        "round_interval",
        "ttl",
        "fanout",
    ),
}


def _class_fields(node: ast.ClassDef) -> List[Tuple[str, int]]:
    """Annotated field names (with line numbers) of a dataclass body."""
    fields: List[Tuple[str, int]] = []
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            name = statement.target.id
            if not name.startswith("_") and not name.isupper():
                fields.append((name, statement.lineno))
    return fields


def _find_class(tree: ast.Module, class_name: str) -> ast.ClassDef:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return node
    raise LookupError(class_name)


def api_surface_check(table: SymbolTable) -> List[Diagnostic]:
    """``API001`` findings: every pinned config surface that drifted."""
    diagnostics: List[Diagnostic] = []
    by_path = {module.rel_path: module for module in table.modules.values()}
    if not any(rel_path in by_path for rel_path, _ in PINNED_SURFACES):
        # A tree with none of the pinned modules is not the repro package
        # (an example dir, a lint fixture): the pin does not apply.
        return diagnostics
    for (rel_path, class_name), pinned in sorted(PINNED_SURFACES.items()):
        module = by_path.get(rel_path)
        if module is None:
            diagnostics.append(
                Diagnostic(
                    code="API001",
                    severity="error",
                    message=(
                        f"pinned config surface {class_name} expected in "
                        f"{rel_path}, but the module is gone — update "
                        f"repro.lint.api_surface.PINNED_SURFACES"
                    ),
                )
            )
            continue
        try:
            node = _find_class(module.tree, class_name)
        except LookupError:
            diagnostics.append(
                Diagnostic(
                    code="API001",
                    severity="error",
                    message=(
                        f"pinned config surface {class_name} no longer "
                        f"defined in {rel_path} — update "
                        f"repro.lint.api_surface.PINNED_SURFACES"
                    ),
                    file=module.file,
                )
            )
            continue
        actual = _class_fields(node)
        actual_names = [name for name, _ in actual]
        lines = dict(actual)
        for name in actual_names:
            if name not in pinned:
                diagnostics.append(
                    Diagnostic(
                        code="API001",
                        severity="error",
                        message=(
                            f"new config kwarg {class_name}.{name}: the "
                            f"{class_name} surface is pinned — add new "
                            f"knobs to RunnerConfig (and, if this growth "
                            f"is deliberate, update PINNED_SURFACES in "
                            f"repro/lint/api_surface.py in the same change)"
                        ),
                        file=module.file,
                        line=lines.get(name, node.lineno),
                    )
                )
        for name in pinned:
            if name not in actual_names:
                diagnostics.append(
                    Diagnostic(
                        code="API001",
                        severity="error",
                        message=(
                            f"pinned config kwarg {class_name}.{name} was "
                            f"removed — callers constructing {class_name} "
                            f"break; update PINNED_SURFACES if the removal is "
                            f"deliberate"
                        ),
                        file=module.file,
                        line=node.lineno,
                    )
                )
    return diagnostics


def pinned_fields(surfaces: Sequence[str]) -> Dict[str, Tuple[str, ...]]:
    """The pinned field tuples by class name (test/tooling convenience)."""
    return {
        class_name: fields
        for (_, class_name), fields in PINNED_SURFACES.items()
        if class_name in surfaces
    }
