"""A1 — Vicinity view size vs convergence speed (ablation).

The paper does not publish its gossip parameters; this ablation quantifies
the view-size trade-off on the elementary ring: larger views converge in
fewer rounds but cost proportionally more memory and bandwidth.
"""

from __future__ import annotations

from repro.experiments.catalogue import EXPERIMENTS, format_result, run_experiment


def test_a1_view_size_sweep(benchmark, record_result):
    result = benchmark.pedantic(
        lambda: run_experiment(EXPERIMENTS["a1"]), rounds=1, iterations=1
    )
    record_result("a1_view_size", format_result(result))
    rows = [(point.label, summary["rounds"]) for point, summary in result.points]
    converged = [(size, stats) for size, stats in rows if stats.n > 0]
    assert converged, "no view size converged at all"
    # Bigger views never hurt by much: the largest view is at least as fast
    # as the smallest converging one.
    smallest = converged[0][1].mean
    largest = converged[-1][1].mean
    assert largest <= smallest + 2
