"""Every runnable example must import: a stale import fails here, not in CI's lint."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

EXAMPLE_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLE_DIR.glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLE_FILES) >= 4


@pytest.mark.parametrize(
    "path", EXAMPLE_FILES, ids=[path.stem for path in EXAMPLE_FILES]
)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the __main__ guard keeps main() unrun
    assert callable(module.main)
