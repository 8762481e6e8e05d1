"""Catalog/fixture drift gate (the lint suite's meta-test).

Every rule in :data:`repro.lint.catalog.CATALOG` must ship with at least
one *firing* fixture (proving the rule detects what it claims) and one
*clean* fixture (proving the near-miss stays silent), and every fixture
must map back to a cataloged code. Adding a rule without fixtures — or
leaving fixtures behind after deleting a rule — fails this suite, so the
catalog and the regression corpus can never drift apart.

Fixture conventions (all under ``tests/lint/fixtures/``):

- ``<code>_*.topo`` — firing assembly fixture; ``clean/<code>_*.topo`` is
  its clean twin.
- ``<code>_*.py`` — firing single-module source fixture; the first line is
  ``# path: <rel_path>`` naming the package-relative path the site scopes
  see. Clean twins live in ``clean/``.
- ``deep/<code>_*/`` — firing fixture package whose round root is
  ``engine.py::Engine.run_round``, run through :func:`repro.lint.self_check`.
  Clean twins live in ``deep/clean/``.
"""

from __future__ import annotations

import os
import re

import pytest

from repro.lint import CATALOG, lint_python_source, lint_topo_file, self_check

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

_CODE_RE = re.compile(r"^(rpr|det|shd|peer)(\d+)_")

#: The round root every fixture package declares.
FIXTURE_ROOTS = ["engine.py::Engine.run_round"]


def _code_of(name: str):
    match = _CODE_RE.match(name)
    return f"{match.group(1).upper()}{match.group(2)}" if match else None


def _discover():
    """(code, kind, path, is_clean) for every fixture on disk."""
    found = []

    def scan_flat(directory, is_clean):
        if not os.path.isdir(directory):
            return
        for name in sorted(os.listdir(directory)):
            path = os.path.join(directory, name)
            if not os.path.isfile(path):
                continue
            code = _code_of(name)
            if name.endswith(".topo"):
                found.append((code, "topo", path, is_clean))
            elif name.endswith(".py"):
                found.append((code, "py", path, is_clean))

    def scan_deep(directory, is_clean):
        if not os.path.isdir(directory):
            return
        for name in sorted(os.listdir(directory)):
            path = os.path.join(directory, name)
            if os.path.isdir(path) and name != "clean":
                found.append((_code_of(name), "deep", path, is_clean))

    scan_flat(FIXTURES, False)
    scan_flat(os.path.join(FIXTURES, "clean"), True)
    scan_deep(os.path.join(FIXTURES, "deep"), False)
    scan_deep(os.path.join(FIXTURES, "deep", "clean"), True)
    return found


ALL_FIXTURES = _discover()


def _run_fixture(kind: str, path: str):
    """The set of codes a fixture produces under its natural checker."""
    if kind == "topo":
        return {diag.code for diag in lint_topo_file(path)}
    if kind == "py":
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        first = source.splitlines()[0]
        assert first.startswith("# path:"), f"{path} lacks a '# path:' header"
        rel_path = first.split(":", 1)[1].strip()
        return {
            diag.code
            for diag in lint_python_source(source, rel_path, file=path)
        }
    assert kind == "deep"
    return {
        diag.code for diag in self_check(root=path, package=(), roots=FIXTURE_ROOTS)
    }


class TestCatalogCoverage:
    def test_every_code_has_a_firing_fixture(self):
        firing = {code for code, _, _, clean in ALL_FIXTURES if not clean}
        missing = sorted(set(CATALOG) - firing)
        assert not missing, f"catalog codes without a firing fixture: {missing}"

    def test_every_code_has_a_clean_fixture(self):
        clean = {code for code, _, _, is_clean in ALL_FIXTURES if is_clean}
        missing = sorted(set(CATALOG) - clean)
        assert not missing, f"catalog codes without a clean fixture: {missing}"

    def test_every_fixture_names_a_cataloged_code(self):
        strays = sorted(
            os.path.basename(path)
            for code, _, path, _ in ALL_FIXTURES
            if code is None or code not in CATALOG
        )
        assert not strays, f"fixtures for codes absent from the catalog: {strays}"


@pytest.mark.parametrize(
    "code,kind,path",
    [
        (code, kind, path)
        for code, kind, path, clean in ALL_FIXTURES
        if not clean and code is not None
    ],
    ids=lambda value: os.path.basename(str(value)) if os.sep in str(value) else None,
)
def test_firing_fixture_fires(code, kind, path):
    produced = _run_fixture(kind, path)
    assert code in produced, (
        f"{os.path.basename(path)} should produce {code}, got {sorted(produced)}"
    )


@pytest.mark.parametrize(
    "code,kind,path",
    [
        (code, kind, path)
        for code, kind, path, clean in ALL_FIXTURES
        if clean and code is not None
    ],
    ids=lambda value: os.path.basename(str(value)) if os.sep in str(value) else None,
)
def test_clean_fixture_stays_silent(code, kind, path):
    produced = _run_fixture(kind, path)
    assert code not in produced, (
        f"{os.path.basename(path)} must not produce {code} "
        f"(got {sorted(produced)})"
    )
