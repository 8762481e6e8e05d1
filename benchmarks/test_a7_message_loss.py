"""A7 — convergence under message loss (ablation).

Paper §3.3: "Gossip algorithms are probabilistic, naturally resilient and
offer good convergence times in most practical situations." This bench
quantifies the resilience half of the claim: one all-pairs
``LinkQuality(loss=p)`` rule on the fault plane drops that fraction of every
link's exchanges, and the full runtime must still converge — degrading in
speed, not in outcome.
"""

from __future__ import annotations

from repro.experiments.catalogue import EXPERIMENTS, format_result, run_experiment


def test_a7_message_loss(benchmark, record_result):
    result = benchmark.pedantic(
        lambda: run_experiment(EXPERIMENTS["a7"]), rounds=1, iterations=1
    )
    record_result("a7_message_loss", format_result(result))
    # Resilience: every layer still converges in every seed up to 40% loss.
    for point, stats in result.points:
        for layer, layer_stats in stats.items():
            assert layer_stats.failures == 0, (
                f"{layer} failed at {point.label:.0%} loss"
            )
    # Degradation is graceful: 40% loss costs at most ~3x the lossless rounds.
    lossless = result.points[0][1]["core"].mean
    lossy = result.points[-1][1]["core"].mean
    assert lossy <= max(3.0 * lossless, lossless + 12)
