"""Seed-determinism regression tests (tier-1).

The contract the whole perf subsystem leans on: a simulation's outcome is a
pure function of (configuration, seed). Running the same workload twice,
or fanning seeds out through the parallel multi-seed runner, must produce
byte-identical result digests per seed.
"""

from __future__ import annotations

from repro.experiments.catalogue import run_parallel_seeds
from repro.perf.digest import result_digest
from repro.perf.workloads import Workload, run_cell
from repro.sim.rng import derive_seed, spawn_seeds

#: Small, fast cells; two shapes with different metric structure.
WORKLOADS = (
    Workload("ring-32", "ring", 32),
    Workload("clique-16", "clique", 16),
)


def _run_task(task):
    """Module-level so it pickles into ProcessPoolExecutor workers."""
    workload, seed = task
    return run_cell(workload.config(seed), workload.max_rounds).to_dict()


def test_same_workload_same_seed_is_byte_identical():
    for workload in WORKLOADS:
        first = _run_task((workload, 7))
        second = _run_task((workload, 7))
        assert first == second
        assert result_digest(first) == result_digest(second)


def test_different_seeds_take_different_trajectories():
    digests = {result_digest(_run_task((WORKLOADS[0], seed))) for seed in (1, 2, 3)}
    assert len(digests) == 3


def test_parallel_runner_matches_serial_per_seed():
    """Fanning out across processes must not change a single byte: same
    tasks, same order, same digests, whether 1 or 4 workers run them."""
    tasks = [
        (workload, seed)
        for workload in WORKLOADS
        for seed in spawn_seeds(1, 2, "determinism")
    ]
    serial = run_parallel_seeds(_run_task, tasks, parallel=1)
    fanned = run_parallel_seeds(_run_task, tasks, parallel=4)
    assert [result_digest(r) for r in serial] == [result_digest(r) for r in fanned]
    assert serial == fanned


def test_spawn_seeds_is_deterministic_and_collision_free():
    first = spawn_seeds(1, 5, "bench", "ring-64")
    again = spawn_seeds(1, 5, "bench", "ring-64")
    assert first == again
    assert len(set(first)) == 5
    # Distinct names and distinct masters derive disjoint seed sets.
    other_name = spawn_seeds(1, 5, "bench", "grid-64")
    other_master = spawn_seeds(2, 5, "bench", "ring-64")
    assert not set(first) & set(other_name)
    assert not set(first) & set(other_master)


def test_spawn_seeds_matches_derive_seed_contract():
    seeds = spawn_seeds(3, 3, "suite", "cell")
    assert seeds == tuple(
        derive_seed(3, "spawn", "suite", "cell", index) for index in range(3)
    )
