"""The peer-seam rule (``PEER001``): a gossip layer asks ``ctx.peers``.

A gossip layer may learn about another node only through one seam,
``ctx.peers``, and only by asking it one of its questions
(:data:`QUESTIONS`). Of ``ctx.network`` — the run's global oracle — it may
read the ``rendezvous`` alone: any other read is knowledge no real node
has, and it would survive every later swap of what ``ctx.peers`` is. With
one seam this is a per-file AST check, no call graph:

- ``ctx.network``, and any name bound to it or named ``network``, is a
  finding unless it is the base of ``.rendezvous``;
- ``ctx.peers``, and any name bound to it or named ``peers``, is a finding
  unless it is the base of a question or handed on whole as a call
  argument (``valid(peers, node_id)``: the callee's reads are checked
  where they are written).

Binding an alias (``network = ctx.network``) is not a finding; its uses
are. The scope is the gossip layers (:data:`SCOPE`); engine-side code —
transports, engines, observers, faults, heal — reads the network on
purpose.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.diagnostics import ERROR, Diagnostic
from repro.lint.symbols import ModuleInfo, SymbolTable

#: Package-relative path prefixes the rule applies to.
SCOPE = ("sim/protocol.py", "gossip/", "core/layers/")

#: What a layer may ask ``ctx.peers``.
QUESTIONS = frozenset(("is_alive", "runs", "profile", "advert"))

#: seam -> the attributes that may be read off it.
_ALLOWED = {"network": frozenset(("rendezvous",)), "peers": QUESTIONS}


def _seam_of(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """``"network"`` / ``"peers"`` when ``node`` reads that seam."""
    if (
        isinstance(node, ast.Attribute)
        and node.attr in _ALLOWED
        and isinstance(node.value, ast.Name)
        and node.value.id == "ctx"
    ):
        return node.attr
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return aliases.get(node.id)
    return None


def _pairs(target: ast.AST, value: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """``(name, value)`` for every plain name an assignment binds."""
    if isinstance(target, ast.Name):
        yield target.id, value
    elif (
        isinstance(target, ast.Tuple)
        and isinstance(value, ast.Tuple)
        and len(target.elts) == len(value.elts)
    ):
        for sub_target, sub_value in zip(target.elts, value.elts):
            yield from _pairs(sub_target, sub_value)


def _aliases(tree: ast.Module) -> Tuple[Dict[str, str], Set[ast.AST]]:
    """(name -> seam, the seam reads an alias was bound from), file-wide."""
    aliases = {name: name for name in _ALLOWED}
    bound: Set[ast.AST] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            for name, value in _pairs(target, node.value):
                seam = _seam_of(value, aliases)
                if seam is not None:
                    aliases[name] = seam
                    bound.add(value)
    return aliases, bound


def _module_findings(module: ModuleInfo) -> List[Diagnostic]:
    aliases, bound = _aliases(module.tree)
    parents = {
        child: node
        for node in ast.walk(module.tree)
        for child in ast.iter_child_nodes(node)
    }
    found: List[Diagnostic] = []
    for node in ast.walk(module.tree):
        seam = _seam_of(node, aliases)
        if seam is None or node in bound:
            continue
        parent = parents.get(node)
        if isinstance(parent, ast.Attribute) and parent.value is node:
            if parent.attr in _ALLOWED[seam]:
                continue
            read = ast.unparse(parent)
        elif seam == "peers" and isinstance(parent, ast.Call) and node in parent.args:
            continue
        else:
            read = ast.unparse(node)
        if seam == "network":
            message = (
                f"gossip layer reads the network oracle ({read}); ask ctx.peers "
                f"— of ctx.network only .rendezvous may be read"
            )
        else:
            message = (
                f"ctx.peers used past its questions ({read}); ask "
                f"{' / '.join(sorted(QUESTIONS))}"
            )
        found.append(
            Diagnostic(
                code="PEER001",
                severity=ERROR,
                message=message,
                file=module.file,
                line=node.lineno,
                column=node.col_offset + 1,
            )
        )
    return found


def peer_check(table: SymbolTable) -> List[Diagnostic]:
    """Every PEER001 finding in the gossip-layer files of ``table``."""
    diagnostics: List[Diagnostic] = []
    for name in sorted(table.modules):
        module = table.modules[name]
        if module.rel_path.startswith(SCOPE):
            diagnostics.extend(_module_findings(module))
    return diagnostics
