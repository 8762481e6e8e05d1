"""The ``repro lint`` subcommand: exit codes, formats, and the examples gate."""

from __future__ import annotations

import json
import os

from repro.cli import main

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
EXAMPLES = os.path.join(REPO_ROOT, "examples")
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def test_examples_are_clean(capsys):
    """Acceptance gate: every shipped example must lint without findings."""
    assert main(["lint", EXAMPLES]) == 0
    assert "clean: no diagnostics" in capsys.readouterr().out


def test_self_check_is_clean(capsys):
    """Acceptance gate, as CI runs it: examples plus the source passes."""
    assert main(["lint", EXAMPLES, "--self-check", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"diagnostics": [], "errors": 0, "warnings": 0}


def test_error_fixture_exits_nonzero(capsys):
    path = os.path.join(FIXTURES, "rpr101_unknown_component.topo")
    assert main(["lint", path]) == 1
    out = capsys.readouterr().out
    assert "RPR101" in out
    assert f"{path}:5" in out
    assert "1 error(s)" in out


def test_warning_fixture_exits_zero(capsys):
    path = os.path.join(FIXTURES, "rpr201_unreferenced_port.topo")
    assert main(["lint", path]) == 0
    out = capsys.readouterr().out
    assert "RPR201" in out
    assert "warning" in out


def test_json_format(capsys):
    path = os.path.join(FIXTURES, "rpr104_self_link.topo")
    assert main(["lint", path, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["errors"] == 1
    assert payload["warnings"] == 0
    (diag,) = payload["diagnostics"]
    assert diag["code"] == "RPR104"
    assert diag["file"] == path
    assert diag["line"] == 5
    assert diag["title"]  # enriched from the catalog


def test_directory_scan_aggregates(capsys):
    # The whole fixture directory: every RPR error fixture contributes.
    assert main(["lint", FIXTURES, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    codes = {diag["code"] for diag in payload["diagnostics"]}
    assert {"RPR001", "RPR105", "RPR201", "RPR206"} <= codes
    assert payload["errors"] >= 10


def test_no_arguments_is_usage_error(capsys):
    assert main(["lint"]) == 2
    assert "at least one path or --self-check" in capsys.readouterr().err


def test_missing_path_is_reported(capsys):
    assert main(["lint", os.path.join(FIXTURES, "no_such_file.topo")]) == 2
    assert "error:" in capsys.readouterr().err
