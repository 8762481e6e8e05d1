"""A8 — uniform vs skewed component sizes (ablation).

Real assemblies mix small components with large ones (the paper's MongoDB
example: an 8-node router next to big shard cliques). This bench compares
the runtime's convergence on a balanced ring-of-rings against a heavily
skewed one (one component holding half the population) at equal node count.
"""

from __future__ import annotations

from repro.experiments.catalogue import EXPERIMENTS, format_result, run_experiment


def test_a8_heterogeneity(benchmark, record_result):
    result = benchmark.pedantic(
        lambda: run_experiment(EXPERIMENTS["a8"]), rounds=1, iterations=1
    )
    record_result("a8_heterogeneity", format_result(result))
    variants = {point.label: summary for point, summary in result.points}
    for variant, summary in variants.items():
        for layer, stats in summary.items():
            assert stats.failures == 0, f"{variant}/{layer} failed"
    # Skew costs something (the giant ring converges slower than small
    # ones) but stays within a small multiple of the balanced case.
    assert (
        variants["skewed"]["core"].mean
        <= max(3.0 * variants["balanced"]["core"].mean, variants["balanced"]["core"].mean + 15)
    )
