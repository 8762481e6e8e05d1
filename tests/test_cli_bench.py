"""Tests for the CLI's bench dispatch (drivers monkeypatched for speed)."""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.fixture
def fast_drivers(monkeypatch):
    """Replace every experiment driver with an instant stub."""
    calls = []

    def stub_runner(name):
        def run(*args, **kwargs):
            calls.append(name)
            return f"<{name} result>"

        return run

    def stub_formatter(name):
        def fmt(result):
            return f"TABLE[{name}]"

        return fmt

    import repro.experiments.fig2 as fig2
    import repro.experiments.fig3 as fig3
    import repro.experiments.fig4 as fig4
    import repro.experiments.reconfiguration as reconf
    import repro.experiments.ring_of_rings as rings

    monkeypatch.setattr(fig2, "run_fig2", stub_runner("fig2"))
    monkeypatch.setattr(fig2, "format_fig2", stub_formatter("fig2"))
    monkeypatch.setattr(fig3, "run_fig3", stub_runner("fig3"))
    monkeypatch.setattr(fig3, "format_fig3", stub_formatter("fig3"))
    monkeypatch.setattr(fig4, "run_fig4", stub_runner("fig4"))
    monkeypatch.setattr(fig4, "format_fig4", stub_formatter("fig4"))
    monkeypatch.setattr(rings, "run_ring_of_rings", stub_runner("e2"))
    monkeypatch.setattr(rings, "format_ring_of_rings", stub_formatter("e2"))
    monkeypatch.setattr(reconf, "run_reconfiguration", stub_runner("e3"))
    monkeypatch.setattr(reconf, "format_reconfiguration", stub_formatter("e3"))
    return calls


@pytest.mark.parametrize("target", ["fig2", "fig3", "fig4", "e2", "e3"])
def test_bench_dispatch(fast_drivers, capsys, target):
    assert main(["bench", target]) == 0
    out = capsys.readouterr().out
    assert "TABLE[" in out


def test_bench_rejects_unknown_target(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "fig9"])


@pytest.mark.parametrize("argv", [["bench"], ["bench", "gossip"]])
def test_bench_needs_a_figure_or_experiment_target(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err
