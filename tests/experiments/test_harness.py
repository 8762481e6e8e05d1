"""Tests for the catalogue's scale control and per-seed measurements."""

from __future__ import annotations

import dataclasses

from repro.experiments import catalogue
from repro.experiments.catalogue import (
    ALL_SERIES,
    EXPERIMENTS,
    SERIES_TO_LAYER,
    Point,
    current_scale,
    measure_elementary,
    run_experiment,
)
from repro.experiments.stats import Stats
from repro.shapes import make_shape


def _layers_row(max_rounds, seeds):
    """E2 shrunk to a ring of 4 rings of 8 nodes."""
    return dataclasses.replace(
        EXPERIMENTS["e2"], sweep=(4,), nodes=32, max_rounds=max_rounds, seeds=seeds
    )


class TestScale:
    def test_default_is_ci(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale().name == "ci"

    def test_full_scale_selectable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        scale = current_scale()
        assert scale.name == "full"
        assert EXPERIMENTS["fig3"].full_nodes == 25600
        assert EXPERIMENTS["fig2"].full_sweep[-1] == 25600
        assert len(scale.seeds) == 25

    def test_unknown_value_falls_back_to_ci(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        assert current_scale().name == "ci"

    def test_ci_scale_matches_paper_shape(self):
        fig2 = EXPERIMENTS["fig2"]
        assert fig2.points(catalogue._CI_SCALE)[0].label == 20
        assert fig2.sweep[0] == 100
        # x-axis doubles, like the paper's log axis.
        ratios = [b / a for a, b in zip(fig2.sweep, fig2.sweep[1:])]
        assert all(ratio == 2 for ratio in ratios)


class TestMeasurement:
    def test_measure_convergence_aggregates_layers(self):
        stats = run_experiment(_layers_row(60, (1, 2))).points[0][1]
        assert set(stats) == {
            "core",
            "uo1",
            "uo2",
            "port_selection",
            "port_connection",
        }
        assert all(isinstance(value, Stats) for value in stats.values())
        assert all(value.n == 2 for value in stats.values())

    def test_measure_elementary(self):
        point = Point(None, 48, make_shape("ring"))
        rounds = [measure_elementary((point, seed, 60))["rounds"] for seed in (1, 2)]
        assert all(value is not None and value > 0 for value in rounds)

    def test_timeout_counts_as_failure(self):
        stats = run_experiment(_layers_row(1, (1,))).points[0][1]
        assert any(value.failures == 1 for value in stats.values())

    def test_series_to_layer_consistent(self):
        assert set(SERIES_TO_LAYER.values()) == {
            "core",
            "uo1",
            "uo2",
            "port_selection",
            "port_connection",
        }
        assert set(SERIES_TO_LAYER) == set(ALL_SERIES)
