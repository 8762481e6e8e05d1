"""E2 (paper §4.ii) — per-sub-procedure convergence on Ring of Rings.

Reports rounds-to-converge for each runtime sub-procedure (UO1, UO2, port
selection, port connection) and the elementary monolithic baseline, on the
paper's Ring-of-Rings topology.
"""

from __future__ import annotations

from repro.experiments.catalogue import (
    EXPERIMENTS,
    SERIES_TO_LAYER,
    format_result,
    run_experiment,
)


def test_e2_ring_of_rings(benchmark, record_result):
    result = benchmark.pedantic(
        lambda: run_experiment(EXPERIMENTS["e2"]), rounds=1, iterations=1
    )
    record_result("e2_ring_of_rings", format_result(result))
    for series, layer in SERIES_TO_LAYER.items():
        stats = result.points[0][1][layer]
        assert stats.failures == 0, f"{series} failed to converge"
        # Paper's qualitative claim: every sub-procedure converges fast
        # (all series sit well under ~30 rounds at these scales).
        assert stats.mean <= 35, f"{series} too slow: {stats}"
