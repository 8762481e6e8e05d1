"""Figure 3 — convergence time vs number of components (fixed population).

Paper: "It is fast and increases slowly with the number of components" —
values sit between ~2 and ~16 rounds across 1-20 components at 25 600 nodes.
This bench regenerates the sweep at the current scale and checks:

- every series converges at every component count;
- growth with component count is slow (bounded increments, small slope);
- UO2 is flat once a request says what it lacks: it climbs at most 3
  rounds over the sweep and ends at 4 or under (a blind rotating offer
  climbed 5 and ended at 6; one that never rotates shows as a knee past 8
  components);
- UO1, which UO2 feeds, stays flat.
"""

from __future__ import annotations

from repro.experiments.catalogue import (
    EXPERIMENTS,
    SERIES_TO_LAYER,
    current_scale,
    format_result,
    run_experiment,
)


def test_fig3_convergence_vs_components(benchmark, record_result):
    scale = current_scale()
    result = benchmark.pedantic(
        lambda: run_experiment(EXPERIMENTS["fig3"]), rounds=1, iterations=1
    )
    record_result("fig3_scalability_components", format_result(result))

    for point, stats in result.points:
        for series, layer in SERIES_TO_LAYER.items():
            assert stats[layer].failures == 0, (
                f"{series} failed at {point.label} components"
            )

    component_span = result.points[-1][0].label - result.points[0][0].label
    for series, means in result.series.items():
        start = means[0]
        end = means[-1]
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

    # UO2 must not be the series that scales with the component count. K
    # names through 7 blind slots is a coupon collector: an offer that never
    # rotates ended at 18 rounds (climb 17), a rotating one at 9.0, then 6.0
    # once addressed to its partner. With the have-digest on the request the
    # reply spends its slots on what the requester lacks: 1 / 2 / 2 / 3 / 3 /
    # 3, flat from 12 components on. Both bounds are absolute — every other
    # series is flat too, so "some other series climbs faster" says nothing.
    uo2 = result.series["Distant-component (UO2)"]
    uo2_end = uo2[-1]
    uo2_climb = uo2_end - uo2[0]
    assert uo2_end <= 4, f"UO2 scales with the component count again ({uo2_end:.1f} rounds)"
    assert uo2_climb <= 3.0, f"UO2 climbs {uo2_climb:.1f} rounds over the sweep"
    # UO1 gets the own-component descriptors UO2 receives: without that
    # handover it was the steepest series (2.5 -> 12.5).
    uo1_end = result.series["Same-component (UO1)"][-1]
    assert uo1_end <= 8, f"UO1 is starved again ({uo1_end:.1f} rounds)"
