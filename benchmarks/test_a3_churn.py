"""A3 — convergence under churn and catastrophic-failure recovery.

The robustness claims of the paper's self-organizing substrate: the runtime
converges while nodes continuously crash and join, and after a correlated
failure of half the population the surviving overlay heals back to a fully
realized (shrunken) shape.
"""

from __future__ import annotations

from repro.experiments.catalogue import EXPERIMENTS, format_result, run_experiment


def test_a3_churn_and_catastrophe(benchmark, record_result):
    result = benchmark.pedantic(
        lambda: run_experiment(EXPERIMENTS["a3"]), rounds=1, iterations=1
    )
    record_result("a3_churn", format_result(result))
    summary = result.points[0][1]
    assert summary["rounds"].failures == 0
    assert summary["health_recovered"].mean >= 0.99
