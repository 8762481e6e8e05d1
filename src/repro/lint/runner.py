"""Lint-run orchestration: file discovery and the top-level entry points.

``repro lint`` hands its path arguments here: ``.topo`` files (and every
``.topo`` found under directory arguments, recursively) go through the
assembly verifier; ``--self-check`` adds the source passes over the
``repro`` package itself — the determinism pass (``DET…``) and shard
safety (``SHD…``) over one project model, and the per-file peer-seam rule
(``PEER…``).
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

from repro.diagnostics import ERROR, Diagnostic, sort_diagnostics
from repro.dsl.parser import parse_source
from repro.errors import ConfigurationError, DslSyntaxError
from repro.lint.assembly_rules import lint_program
from repro.lint.determinism import determinism_check
from repro.lint.pragmas import apply_pragmas
from repro.lint.roots import DEFAULT_ROOTS, ProjectModel, analyze
from repro.lint.peers import peer_check
from repro.lint.shard import shard_check
from repro.lint.symbols import SymbolTable

#: Extension of DSL topology programs.
TOPO_SUFFIX = ".topo"


def collect_topo_files(paths: Sequence[str]) -> List[str]:
    """Expand file/directory arguments into a sorted list of ``.topo`` files.

    Unknown paths raise :class:`~repro.errors.ConfigurationError`; a
    directory containing no ``.topo`` files contributes nothing (the caller
    decides whether an empty run is noteworthy).
    """
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(dirnames)
                for filename in sorted(filenames):
                    if filename.endswith(TOPO_SUFFIX):
                        found.append(os.path.join(dirpath, filename))
        else:
            raise ConfigurationError(f"lint: no such file or directory: {path!r}")
    return sorted(dict.fromkeys(found))


def lint_topo_file(path: str) -> List[Diagnostic]:
    """All diagnostics for one ``.topo`` file (syntax errors included)."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = parse_source(source)
    except DslSyntaxError as exc:
        return [
            Diagnostic(
                code="RPR001",
                severity=ERROR,
                message=str(exc),
                file=path,
                line=exc.line,
                column=exc.column,
            )
        ]
    return lint_program(tree, file=path)


def analyze_project(
    root: Optional[str] = None,
    package: Tuple[str, ...] = ("repro",),
    roots: Sequence[str] = DEFAULT_ROOTS,
) -> ProjectModel:
    """The project model for ``root`` (default: the installed ``repro``)."""
    return analyze(SymbolTable.build(root, package), roots)


def self_check(
    root: Optional[str] = None,
    package: Tuple[str, ...] = ("repro",),
    roots: Sequence[str] = DEFAULT_ROOTS,
) -> List[Diagnostic]:
    """DET, SHD and PEER diagnostics for the project under ``root``."""
    model = analyze_project(root, package, roots)
    diagnostics = (
        determinism_check(model) + shard_check(model) + peer_check(model.table)
    )
    return sort_diagnostics(apply_pragmas(diagnostics, model.table.sources))


def lint_python_source(
    source: str, rel_path: str, file: Optional[str] = None
) -> List[Diagnostic]:
    """Site findings (no roots) and PEER findings for one Python source text.

    ``rel_path`` is the path relative to the ``repro`` package root (e.g.
    ``gossip/views.py``) and selects which site scopes apply; ``file`` is the
    on-disk path reported in diagnostics (defaults to ``rel_path``).
    """
    table = SymbolTable.from_source(source, rel_path, file or rel_path)
    diagnostics = determinism_check(analyze(table, ())) + peer_check(table)
    return sort_diagnostics(apply_pragmas(diagnostics, table.sources))


def lint_paths(paths: Sequence[str], with_self_check: bool = False) -> List[Diagnostic]:
    """Lint every ``.topo`` under ``paths``; optionally self-check too."""
    diagnostics: List[Diagnostic] = []
    for path in collect_topo_files(paths):
        diagnostics.extend(lint_topo_file(path))
    if with_self_check:
        diagnostics.extend(self_check())
    return sort_diagnostics(diagnostics)
