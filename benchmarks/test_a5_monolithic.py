"""A5 — layered runtime vs the monolithic single-overlay design.

The paper's motivating claim (§2.2): traditional self-organizing overlays
"are unfortunately monolithic [...] complex combinations, such as a star of
cliques, are more problematic". This bench quantifies the claim on exactly
that topology: one Vicinity instance with a composite distance function
versus the layered runtime.
"""

from __future__ import annotations

from repro.experiments.catalogue import EXPERIMENTS, format_result, run_experiment


def test_a5_monolithic_vs_layered(benchmark, record_result):
    result = benchmark.pedantic(
        lambda: run_experiment(EXPERIMENTS["a5"]), rounds=1, iterations=1
    )
    record_result("a5_monolithic", format_result(result))
    summary = result.points[0][1]
    layered = summary["layered_runtime_core"]
    monolithic = summary["monolithic_overlay"]
    assert layered.failures == 0
    # The monolithic design loses: slower when it converges at all (and it
    # cannot express the links between components in any case).
    assert monolithic.failures > 0 or monolithic.mean > layered.mean
