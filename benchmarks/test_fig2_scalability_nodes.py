"""Figure 2 — convergence time vs number of nodes (20 components).

Paper: "It is fast and scales well with the number of nodes" — all five
series stay below ~30 rounds over a logarithmic x-axis (100 → 25 600 nodes).
This bench regenerates the series and checks the *shape*:

- every series converges at every point;
- growth over a 16× node increase is logarithmic-like, not linear: the
  slowest point is far below 16× the fastest.

``REPRO_SCALE=full`` runs the paper's exact axis (up to 25 600 nodes).
"""

from __future__ import annotations

from repro.experiments.catalogue import (
    EXPERIMENTS,
    SERIES_TO_LAYER,
    current_scale,
    format_result,
    run_experiment,
)


def test_fig2_convergence_vs_nodes(benchmark, record_result):
    scale = current_scale()
    result = benchmark.pedantic(
        lambda: run_experiment(EXPERIMENTS["fig2"]), rounds=1, iterations=1
    )
    record_result("fig2_scalability_nodes", format_result(result))

    for point, stats in result.points:
        for series, layer in SERIES_TO_LAYER.items():
            assert stats[layer].failures == 0, (
                f"{series} failed at {point.nodes} nodes"
            )

    # Shape check: sub-logarithmic-ish growth. Compare the largest and
    # smallest population: rounds must grow far slower than node count.
    (smallest, _), (largest, _) = result.points[0], result.points[-1]
    population_ratio = largest.nodes / smallest.nodes
    for series, means in result.series.items():
        first = max(1.0, means[0])
        last = max(1.0, means[-1])
        growth = last / first
        assert growth <= population_ratio / 2, (
            f"{series}: rounds grew {growth:.1f}x over a "
            f"{population_ratio:.0f}x population increase"
        )
        # The paper's absolute envelope: < ~30 rounds everywhere it plots.
        budget = 30 if scale.name == "full" else 40
        assert last <= budget, f"{series} exceeded the round envelope"

    # Logarithmic trend: successive doublings add a bounded number of
    # rounds rather than doubling them (checked on the steadiest series;
    # the small-seed CI of the others is too wide for a per-step check).
    series = "Same-component (UO1)"
    means = result.series[series]
    increments = [b - a for a, b in zip(means, means[1:])]
    assert max(increments) <= max(8.0, means[0] * 1.5), (
        f"{series}: a single doubling added {max(increments):.1f} rounds"
    )
