"""A4 — T-Man as the component core protocol (ablation).

The paper cites both Vicinity and T-Man as topology-construction protocols
and uses Vicinity for its prototype. This ablation swaps T-Man in as the
core protocol of every component and compares the full runtime's per-layer
convergence.
"""

from __future__ import annotations

from repro.experiments.catalogue import EXPERIMENTS, format_result, run_experiment


def test_a4_core_flavor(benchmark, record_result):
    result = benchmark.pedantic(
        lambda: run_experiment(EXPERIMENTS["a4"]), rounds=1, iterations=1
    )
    record_result("a4_tman_core", format_result(result))
    for point, summary in result.points:
        assert summary["core"].failures == 0, f"{point.label} core failed"
