"""The memory ceiling: a 1k-node columnar run stays under its budget.

The budget is recorded in BENCH_gossip.json's ``scale_tiers.1k.memory``
section by ``repro bench --scale 1k`` (tracemalloc peak of the columnar
serial cell, times two). This test re-measures under tracemalloc and holds
the line — a representation change that doubles Python-level allocations
fails here before it reaches the bench.
"""

from __future__ import annotations

import json
import pathlib
import tracemalloc

import pytest

from repro.perf.workloads import Workload, run_cell

TRAJECTORY = pathlib.Path(__file__).resolve().parents[2] / "BENCH_gossip.json"


def recorded_budget():
    if not TRAJECTORY.exists():
        pytest.skip("no BENCH_gossip.json trajectory in this checkout")
    data = json.loads(TRAJECTORY.read_text())
    memory = data.get("scale_tiers", {}).get("1k", {}).get("memory")
    if memory is None:
        pytest.skip("no 1k memory budget recorded; run `repro bench --scale 1k`")
    return memory


@pytest.mark.slow
def test_1k_columnar_run_stays_under_recorded_budget():
    memory = recorded_budget()
    workload = Workload(
        memory["workload"], memory["workload"].split("-")[0], memory["n_nodes"], 90
    )
    tracemalloc.start()
    try:
        result = run_cell(
            workload.config(_probe_seed(workload), kind="sharded", backend="columnar"),
            workload.max_rounds,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.executed > 0
    budget = memory["tracemalloc_budget_bytes"]
    assert peak <= budget, (
        f"1k columnar run peaked at {peak} bytes "
        f"(recorded budget {budget}, measured baseline "
        f"{memory['tracemalloc_peak_bytes']})"
    )


def _probe_seed(workload: Workload) -> int:
    from repro.sim.rng import spawn_seeds

    return spawn_seeds(1, 1, "scale-bench", workload.name)[0]
