"""E3 (paper §4.iii) — dynamic reconfiguration under evolving needs.

Converges a ring-of-rings, rewrites the assembly to a star-of-cliques while
the system runs, and measures re-convergence — plus a cold-start control of
the target topology for comparison.
"""

from __future__ import annotations

from repro.experiments.catalogue import EXPERIMENTS, format_result, run_experiment


def test_e3_reconfiguration(benchmark, record_result):
    result = benchmark.pedantic(
        lambda: run_experiment(EXPERIMENTS["e3"]), rounds=1, iterations=1
    )
    record_result("e3_reconfiguration", format_result(result))
    summary = result.points[0][1]
    reconfigured = summary["reconfigure A -> B (star-of-cliques)"]
    cold_start = summary["cold start of topology B"]
    # The headline claim: re-convergence always completes.
    assert reconfigured.failures == 0
    # And it is not meaningfully worse than a cold start of the new
    # topology (the surviving substrate pays for itself).
    assert reconfigured.mean <= cold_start.mean * 1.75
