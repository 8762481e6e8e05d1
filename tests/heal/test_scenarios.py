"""Closed-loop scenarios: the acceptance differential, matrix, and CLI.

The centerpiece is the managed-vs-unmanaged matrix over every corruption
mode: the managed run must re-converge (closed-loop recovery) while the
unmanaged baseline either never stabilizes within the budget or takes at
least twice as long — the quantitative case that the remediation engine
earns its keep.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.heal.harness import corruption_modes
from repro.heal.scenarios import (
    format_heal_matrix,
    format_scenario,
    run_heal_matrix,
    run_scenario,
    write_heal_bench,
)

BUDGET = 60


@pytest.fixture(scope="module")
def matrix():
    return run_heal_matrix(n_nodes=64, seed=7, budget=BUDGET)


def test_unknown_mode_is_rejected():
    with pytest.raises(ConfigurationError):
        run_scenario("meteor-strike")


@pytest.mark.slow
def test_matrix_covers_every_mode(matrix):
    assert [managed.name for managed, _ in matrix] == corruption_modes()
    for managed, unmanaged in matrix:
        assert managed.managed
        assert not unmanaged.managed
        assert unmanaged.name == managed.name


@pytest.mark.slow
def test_closed_loop_recovery_differential(matrix):
    """The acceptance criterion: for every corruption mode the managed run
    converges and the unmanaged baseline fails or is >= 2x slower."""
    for managed, unmanaged in matrix:
        assert managed.verdict == "recovered", managed.name
        assert managed.stabilize_rounds is not None
        assert managed.remediation["actions_run"] > 0
        if unmanaged.stabilize_rounds is not None:
            assert (
                unmanaged.stabilize_rounds >= 2 * managed.stabilize_rounds
            ), managed.name


@pytest.mark.slow
def test_managed_runs_record_remediation_timelines(matrix):
    for managed, unmanaged in matrix:
        assert managed.timeline, managed.name
        kinds = {item["kind"] for item in managed.timeline}
        assert "incident_opened" in kinds
        assert "remediation" in kinds
        json.dumps(managed.timeline)  # JSONL-ready
        assert unmanaged.timeline == []


@pytest.mark.slow
def test_bench_writer_lands_stabilization_numbers(matrix, tmp_path):
    path = write_heal_bench(matrix, json_path=str(tmp_path / "BENCH_heal.json"))
    payload = json.loads((tmp_path / "BENCH_heal.json").read_text())
    assert path.endswith("BENCH_heal.json")
    assert payload["benchmark"] == "heal"
    assert [entry["mode"] for entry in payload["entries"]] == corruption_modes()
    for entry in payload["entries"]:
        assert entry["managed"]["verdict"] == "recovered"
        assert entry["managed"]["stabilize_rounds"] is not None


@pytest.mark.slow
def test_formatters_render_the_story(matrix):
    table = format_heal_matrix(matrix)
    for mode in corruption_modes():
        assert mode in table
    report = format_scenario(matrix[0][0])
    assert "time-to-stabilize" in report
    assert "verdict: recovered" in report


def test_partition_churn_end_to_end():
    result = run_scenario("partition-churn", n_nodes=64, seed=7, managed=True)
    assert result.verdict == "recovered"
    assert result.stabilize_rounds is not None
    assert result.stabilize_rounds <= result.budget
    rules = {item["rule"] for item in result.timeline}
    assert "churn_spike" in rules  # the kill wave was seen and acted on
    # The rendezvous re-seed defers while the cut is active (acting across
    # an active partition is futile), then resolves once it heals.
    outcomes = [
        item["outcome"]
        for item in result.timeline
        if item.get("action") == "rendezvous_reseed"
    ]
    assert "deferred" in outcomes
    assert outcomes[-1] in ("applied", "noop")


def test_scenario_is_deterministic_per_seed():
    def once():
        result = run_scenario(
            "stale", n_nodes=64, seed=7, managed=True, budget=BUDGET
        )
        return result.stabilize_rounds, result.corruption, result.timeline

    assert once() == once()


def test_cli_heal_scenario(tmp_path, capsys):
    from repro.cli import main

    timeline_path = tmp_path / "timeline.jsonl"
    code = main(
        [
            "heal",
            "--scenario",
            "stale",
            "--budget",
            str(BUDGET),
            "--timeline",
            str(timeline_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: recovered" in out
    entries = [
        json.loads(line)
        for line in timeline_path.read_text().splitlines()
    ]
    assert entries
    assert all(entry["mode"] == "stale" for entry in entries)


def test_cli_heal_rejects_compare_with_unmanaged(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["heal", "--scenario", "stale", "--compare", "--unmanaged"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "not allowed with argument" in err


@pytest.mark.slow
def test_cli_heal_unmanaged_flavor(capsys):
    from repro.cli import main

    code = main(
        ["heal", "--scenario", "segregated", "--unmanaged", "--budget", "40"]
    )
    out = capsys.readouterr().out
    assert "unmanaged" in out
    assert code == 0  # no managed runs demanded: nothing to fail on
