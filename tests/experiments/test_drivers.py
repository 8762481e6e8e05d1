"""Every catalogue row runs end to end at tiny sizes.

The real reproductions live in ``benchmarks/``; these tests shrink each row
with :func:`dataclasses.replace` (one seed, at most 64 nodes) and assert
its *structure* — rows, series, title — plus the qualitative outcome a few
ablations exist to show.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import pytest

from repro.experiments.catalogue import (
    ALL_SERIES,
    EXPERIMENTS,
    LAYERS,
    format_result,
    measure_layers,
    run_experiment,
)

#: Per-row overrides that keep every row within the unit-test budget.
TINY = {
    "e1": dict(sweep=("line_of_stars", "iot_composite")),
    "e2": dict(sweep=(4,), nodes=32, max_rounds=60),
    "e3": dict(nodes=64, max_rounds=80),
    "fig2": dict(sweep=(40, 60), max_rounds=60),
    "fig3": dict(sweep=(2, 4), nodes=64, max_rounds=60),
    "fig4": dict(sweep=(4,), nodes=64, max_rounds=8),
    "a1": dict(sweep=(4, 8), nodes=64, max_rounds=60),
    "a2": dict(nodes=64, max_rounds=25),
    "a3": dict(nodes=48, max_rounds=60),
    "a4": dict(nodes=48, max_rounds=80),
    "a5": dict(nodes=54, max_rounds=40),
    "a7": dict(sweep=(0.0, 0.3), nodes=48, max_rounds=100),
    "a8": dict(nodes=64, max_rounds=100),
}


@functools.lru_cache(maxsize=None)
def tiny(name):
    row = dataclasses.replace(EXPERIMENTS[name], seeds=(1,), **TINY[name])
    return run_experiment(row)


def test_every_row_has_tiny_sizes():
    assert set(TINY) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_row_runs_at_tiny_size(name):
    result = tiny(name)
    row = EXPERIMENTS[name]
    assert all(point.nodes <= 64 for point, _ in result.points)
    assert result.rows
    assert all(len(cells) == len(row.columns) for cells in result.rows)
    if row.measure is measure_layers:
        for _, summary in result.points:
            assert set(summary) == set(LAYERS)
            assert all(stats.n + stats.failures == 1 for stats in summary.values())
    text = format_result(result)
    assert text.startswith(result.title)
    for column in row.columns:
        assert column in text
    assert bool(result.series) == bool(row.series)
    for series_name, values in result.series.items():
        assert series_name in text
        assert len(values) in (len(result.points), len(result.rows))


class TestFig2Driver:
    def test_rows_and_series(self):
        result = tiny("fig2")
        assert len(result.rows) == 2
        assert set(result.series) == set(ALL_SERIES)
        assert result.rows[0][0] < result.rows[1][0]

    def test_format(self):
        text = format_result(tiny("fig2"))
        assert "Figure 2" in text
        for series in ALL_SERIES:
            assert series in text


class TestFig3Driver:
    def test_rows_and_series(self):
        result = tiny("fig3")
        assert [row[0] for row in result.rows] == [2, 4]
        assert set(result.series) == set(ALL_SERIES)

    def test_format(self):
        assert "Figure 3" in format_result(tiny("fig3"))


class TestFig4Driver:
    def test_series_lengths(self):
        result = tiny("fig4")
        baseline, overhead = result.series["Baseline"], result.series["Overhead"]
        assert len(baseline) == len(overhead) == len(result.rows) == 8
        assert all(value >= 0 for value in baseline)
        assert not any(math.isnan(value) for value in overhead)

    @pytest.mark.slow
    def test_bandwidth_plateaus(self):
        """Fig 4's qualitative shape: both series rise then flatten."""
        row = dataclasses.replace(
            EXPERIMENTS["fig4"], sweep=(6,), nodes=96, max_rounds=12, seeds=(1, 2)
        )
        late_base = run_experiment(row).series["Baseline"][-3:]
        spread = max(late_base) - min(late_base)
        assert spread <= 0.2 * max(late_base)

    def test_format(self):
        text = format_result(tiny("fig4"))
        assert "Figure 4" in text and "4 components, 64 nodes" in text
        assert "Baseline" in text and "Overhead" in text


class TestRingOfRingsDriver:
    def test_series_present(self):
        result = tiny("e2")
        assert [row[0] for row in result.rows] == list(ALL_SERIES)
        assert "ring" in format_result(result).lower()


class TestReconfigurationDriver:
    def test_phases_reported(self):
        summary = tiny("e3").points[0][1]
        assert summary["converge topology A (ring-of-rings)"].n == 1
        assert summary["reconfigure A -> B (star-of-cliques)"].n == 1
        assert summary["cold start of topology B"].n == 1
        assert "reconfigure" in format_result(tiny("e3"))


def _stats(name, key):
    return {point.label: summary[key] for point, summary in tiny(name).points}


class TestAblationDrivers:
    def test_view_size_sweep(self):
        assert [row[0] for row in tiny("a1").rows] == [4, 8]

    def test_random_feed_ablation_shows_starvation(self):
        stats = _stats("a2", "rounds")
        assert stats["with_random_feed"].n == 1
        assert stats["without_random_feed"].failures == 1

    def test_core_flavor_comparison(self):
        stats = _stats("a4", "core")
        assert set(stats) == {"vicinity", "tman"}
        assert stats["vicinity"].n == 1

    def test_monolithic_comparison(self):
        summary = tiny("a5").points[0][1]
        layered = summary["layered_runtime_core"]
        monolithic = summary["monolithic_overlay"]
        assert layered.n == 1
        # The monolithic baseline converges later or not at all.
        assert monolithic.failures == 1 or monolithic.mean > layered.mean

    def test_loss_tolerance_sweep(self):
        stats = _stats("a7", "core")
        assert list(stats) == [0.0, 0.3]
        assert all(value.failures == 0 for value in stats.values())
        # Loss never speeds things up.
        assert stats[0.3].mean >= stats[0.0].mean

    def test_heterogeneity_study(self):
        stats = _stats("a8", "core")
        assert set(stats) == {"balanced", "skewed"}
        assert all(value.failures == 0 for value in stats.values())
