"""Tests for the CLI's bench dispatch (the one runner stubbed for speed)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments import catalogue
from repro.experiments.catalogue import EXPERIMENTS, ExperimentResult


@pytest.fixture
def fast_runner(monkeypatch):
    """Replace the catalogue's runner with an instant stub."""
    calls = []

    def run(experiment):
        calls.append(experiment)
        return ExperimentResult(
            experiment=experiment, title=f"TABLE[{experiment.title}]", rows=[], points=[]
        )

    monkeypatch.setattr(catalogue, "run_experiment", run)
    return calls


@pytest.mark.parametrize("target", sorted(EXPERIMENTS))
def test_bench_dispatch(fast_runner, capsys, target):
    assert main(["bench", target]) == 0
    assert fast_runner == [EXPERIMENTS[target]]
    assert f"TABLE[{EXPERIMENTS[target].title}]" in capsys.readouterr().out


def test_bench_rejects_unknown_target(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "fig9"])


@pytest.mark.parametrize("argv", [["bench"], ["bench", "gossip"]])
def test_bench_needs_a_figure_or_experiment_target(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err
