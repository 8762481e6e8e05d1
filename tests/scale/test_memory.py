"""The memory ceiling: a 1k-node columnar run stays under its budget.

The budget is the ``memory_1k`` entry of ``elementary_cells.json`` (the
tracemalloc peak of the columnar serial cell when it was recorded, times
two). This test re-measures under tracemalloc and holds the line — a
representation change that doubles Python-level allocations fails here. A
missing golden or budget entry is a failure, not a skip: the ceiling only
gates while it has a number to hold.
"""

from __future__ import annotations

import json
import pathlib
import tracemalloc

import pytest

from repro.perf.workloads import run_cell, workload_matrix
from repro.sim.rng import spawn_seeds

GOLDEN = pathlib.Path(__file__).with_name("elementary_cells.json")


@pytest.mark.slow
def test_1k_columnar_run_stays_under_recorded_budget():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    memory = golden["memory_1k"]
    (workload,) = [
        w for w in workload_matrix("1k", suite="scale") if w.name == memory["name"]
    ]
    (seed,) = spawn_seeds(golden["master_seed"], 1, "scale-bench", workload.name)
    tracemalloc.start()
    try:
        result = run_cell(
            workload.config(seed, kind="sharded", backend="columnar"),
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
