"""E1 (paper §4.i) — building complex real-world-like topologies.

The paper's first experiment shows the framework "can actually generate
complex topologies, comparable to those used currently in real-world
applications". This bench converges every predefined composite assembly
(MongoDB star-of-cliques, ring-of-rings, grid-of-rings, line-of-stars, the
IoT composite) and reports rounds-to-converge per topology.
"""

from __future__ import annotations

from repro.core import Runtime
from repro.experiments.catalogue import (
    EXPERIMENTS,
    current_scale,
    format_result,
    run_experiment,
)
from repro.experiments.topologies import star_of_cliques


def test_e1_complex_topologies(benchmark, record_result):
    result = benchmark.pedantic(
        lambda: run_experiment(EXPERIMENTS["e1"]), rounds=1, iterations=1
    )
    record_result("e1_complex_topologies", format_result(result))
    # Every topology must have converged in every seed (no failures).
    for row in result.rows:
        assert "failed" not in row[6], row


def test_e1_all_layers_converge_for_mongo(benchmark):
    """Focused check on the paper's flagship example."""
    scale = current_scale()
    assembly = star_of_cliques(4, 18, 8)

    def run():
        deployment = Runtime(assembly, seed=scale.seeds[0]).deploy()
        return deployment.run_until_converged(scale.max_rounds)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.converged, report.rounds
