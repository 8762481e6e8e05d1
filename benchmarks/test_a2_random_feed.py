"""A2 — the peer-sampling feed is load-bearing (ablation).

Vicinity's subtitle is "a pinch of randomness brings out the structure":
without the random candidate feed, the greedy overlay starves and never
converges from a cold start. This ablation measures exactly that.
"""

from __future__ import annotations

from repro.experiments.catalogue import EXPERIMENTS, format_result, run_experiment


def test_a2_random_feed(benchmark, record_result):
    result = benchmark.pedantic(
        lambda: run_experiment(EXPERIMENTS["a2"]), rounds=1, iterations=1
    )
    record_result("a2_random_feed", format_result(result))
    stats = {point.label: summary["rounds"] for point, summary in result.points}
    assert stats["with_random_feed"].failures == 0
    assert stats["without_random_feed"].n == 0, (
        "the no-feed configuration should starve from a cold start"
    )
