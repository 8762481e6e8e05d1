"""The scale rows of the workload matrix, run through the one cell runner."""

from __future__ import annotations

import pytest

from repro.perf.workloads import Workload, run_cell, workload_matrix


def test_matrix_tiers():
    ci = workload_matrix("ci", suite="scale")
    assert all(w.n_nodes <= 64 for w in ci)
    assert {w.shape for w in ci} == {"ring", "grid"}
    assert all(w.n_nodes == 1024 for w in workload_matrix("1k", suite="scale"))
    tenk = workload_matrix("10k", suite="scale")
    assert len(tenk) == 1 and tenk[0].n_nodes == 10000
    assert workload_matrix("unknown", suite="scale") == ci


def test_run_scale_workload_converges_and_reports():
    workload = Workload("ring-64", "ring", 64)
    result = run_cell(workload.config(3, kind="sharded"), workload.max_rounds)
    assert result.rounds_to_converge is not None
    assert result.executed == result.rounds_to_converge <= workload.max_rounds
    assert result.messages > 0 and result.bytes > 0
    assert len(result.digest) == 64
    assert result.mode == "inline"
    assert result.to_dict()["workload"] == "ring-64"


@pytest.mark.parametrize("backend", ["object", "columnar"])
def test_result_is_a_pure_function_of_workload_and_seed(backend):
    workload = Workload("ring-48", "ring", 48, max_rounds=20)
    first = run_cell(
        workload.config(5, kind="sharded", backend=backend), workload.max_rounds
    )
    second = run_cell(
        workload.config(5, kind="sharded", backend=backend, n_shards=3),
        workload.max_rounds,
    )
    assert first == second


def test_workloads_pickle():
    import pickle

    workload = Workload("ring-64", "ring", 64)
    assert pickle.loads(pickle.dumps(workload)) == workload
