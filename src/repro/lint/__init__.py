"""Static verification of assembly programs and of the framework itself.

The shift-left counterpart of the simulator: a broken assembly (a port no
link reaches, a hypercube of 12, an unreachable island) should fail in
milliseconds at ``repro lint`` time with a coded, located diagnostic — not
after hundreds of simulated rounds as mysterious non-convergence.

Two prongs, one diagnostic currency (:class:`~repro.diagnostics.Diagnostic`):

- :func:`lint_program` / :func:`lint_assembly` / :func:`lint_topo_file` —
  the assembly verifier (``RPR…`` rules);
- :func:`self_check` — the source passes over ``repro``'s own code
  (``repro lint --self-check``): a project symbol table and call graph
  (:mod:`repro.lint.symbols` / :mod:`repro.lint.callgraph`), the
  determinism pass (``DET…``, :mod:`repro.lint.determinism`) that reports
  a nondeterminism source at its site or, outside its site scope, where an
  engine-round root (:mod:`repro.lint.roots`) reaches it, and the
  shard-safety pass (``SHD…``, :mod:`repro.lint.shard`), and the per-file
  peer-seam rule (``PEER…``, :mod:`repro.lint.peers`).
  :func:`lint_python_source` runs the determinism and peer-seam passes on
  one source text.
  Findings are acknowledged inline (``# repro-lint: disable=CODE``).

``python -m repro lint [paths…] [--self-check] [--format text|json]`` is
the CLI face; the full rule catalog lives in :mod:`repro.lint.catalog` and
``docs/lint.md``.
"""

from repro.diagnostics import (
    ERROR,
    WARNING,
    Diagnostic,
    count_by_severity,
    has_errors,
    sort_diagnostics,
)
from repro.lint.assembly_rules import lint_assembly, lint_program
from repro.lint.callgraph import CallGraph
from repro.lint.catalog import CATALOG, Rule, severity_of
from repro.lint.pragmas import apply_pragmas, parse_pragmas
from repro.lint.reporters import render_json, render_text
from repro.lint.roots import DEFAULT_ROOTS, match_roots
from repro.lint.runner import (
    analyze_project,
    collect_topo_files,
    lint_paths,
    lint_python_source,
    lint_topo_file,
    self_check,
)
from repro.lint.symbols import SymbolTable

__all__ = [
    "CATALOG",
    "CallGraph",
    "DEFAULT_ROOTS",
    "Diagnostic",
    "ERROR",
    "Rule",
    "SymbolTable",
    "WARNING",
    "analyze_project",
    "apply_pragmas",
    "collect_topo_files",
    "count_by_severity",
    "has_errors",
    "lint_assembly",
    "lint_paths",
    "lint_program",
    "lint_python_source",
    "lint_topo_file",
    "match_roots",
    "parse_pragmas",
    "render_json",
    "render_text",
    "self_check",
    "severity_of",
    "sort_diagnostics",
]
