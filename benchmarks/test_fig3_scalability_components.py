"""Figure 3 — convergence time vs number of components (fixed population).

Paper: "It is fast and increases slowly with the number of components" —
values sit between ~2 and ~16 rounds across 1-20 components at 25 600 nodes.
This bench regenerates the sweep at the current scale and checks:

- every series converges at every component count;
- growth with component count is slow (bounded increments, small slope);
- UO2 stays inside the paper's band at the largest count and climbs no
  faster than it did with the rotating offer (an offer that never rotates
  shows as a knee past 8 components);
- UO1, which UO2 now feeds, stays flat.
"""

from __future__ import annotations

from repro.experiments.fig3 import format_fig3, run_fig3
from repro.experiments.harness import ALL_SERIES, SERIES_UO1, SERIES_UO2, current_scale


def test_fig3_convergence_vs_components(benchmark, record_result):
    scale = current_scale()
    rows = benchmark.pedantic(
        lambda: run_fig3(scale=scale), rounds=1, iterations=1
    )
    record_result("fig3_scalability_components", format_fig3(rows))

    for row in rows:
        for series in ALL_SERIES:
            assert row.series[series].failures == 0, (
                f"{series} failed at {row.n_components} components"
            )

    first, last = rows[0], rows[-1]
    component_span = last.n_components - first.n_components
    for series in ALL_SERIES:
        start = first.series[series].mean
        end = last.series[series].mean
        # "Increases slowly": bounded absolute slope — each extra component
        # costs around a round at most, never a multiplicative blow-up.
        # (A ratio test would be meaningless for series whose small-x
        # baseline is trivially ~1 round, like UO2 with a single foreign
        # component to find.)
        slope = (end - start) / component_span
        assert slope <= 1.5, (
            f"{series}: {slope:.2f} extra rounds per added component "
            f"({start:.1f} -> {end:.1f})"
        )
        budget = 25 if scale.name == "full" else 40
        assert end <= budget, f"{series} exceeded the round envelope ({end})"

    # UO2 must gossip *every* known component, not only as many as fit one
    # message (7 slots): an offer that never rotates shows as a knee past 8
    # components — 18 rounds at 20, a climb of 17. With the rotating offer it
    # ended at 9.0 (climb 8.0); both bounds are absolute, because "some other
    # series climbs faster" stopped being true once UO2 fed UO1 and every
    # other series went flat (UO1 12.5 -> 5.0 at 20 components).
    uo2_end = last.series[SERIES_UO2].mean
    uo2_climb = uo2_end - first.series[SERIES_UO2].mean
    assert uo2_end <= 16, f"UO2 left the paper's band ({uo2_end:.1f} rounds)"
    assert uo2_climb <= 8.0, f"UO2 climbs {uo2_climb:.1f} rounds over the sweep"
    # UO1 gets the own-component descriptors UO2 receives: without that
    # handover it was the steepest series (2.5 -> 12.5).
    uo1_end = last.series[SERIES_UO1].mean
    assert uo1_end <= 8, f"UO1 is starved again ({uo1_end:.1f} rounds)"
