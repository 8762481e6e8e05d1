"""The workload matrices, run through the one cell runner."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.perf.workloads import Workload, run_cell, workload_matrix


def test_matrix_tiers():
    ci = workload_matrix("ci", suite="scale")
    assert all(w.n_nodes <= 64 for w in ci)
    assert {w.shape for w in ci} == {"ring", "grid"}
    assert all(w.n_nodes == 1024 for w in workload_matrix("1k", suite="scale"))


@pytest.mark.parametrize("scale,suite", [("10k", "scale"), ("1K", "gossip"), ("ci", "swarm")])
def test_unknown_matrix_is_an_error_naming_the_known_ones(scale, suite):
    with pytest.raises(ConfigurationError, match="gossip/ci, scale/ci, scale/1k"):
        workload_matrix(scale, suite=suite)


def test_workload_matrices_are_fixed_and_distinct():
    matrices = [
        workload_matrix("ci"),
        workload_matrix("ci", suite="scale"),
        workload_matrix("1k", suite="scale"),
    ]
    assert len(set(matrices)) == len(matrices)
    for matrix in matrices:
        names = [w.name for w in matrix]
        assert names and len(names) == len(set(names))
        for workload in matrix:
            assert workload.name == f"{workload.shape}-{workload.n_nodes}"
    assert workload_matrix() == workload_matrix("ci", suite="gossip")


def test_run_workload_produces_complete_result():
    workload = Workload("ring-32", "ring", 32)
    record = run_cell(workload.config(3), workload.max_rounds).to_dict()
    assert record["workload"] == "ring-32"
    assert record["seed"] == 3
    assert record["mode"] == "inline"
    assert record["rounds_to_converge"] is not None
    assert record["executed"] >= record["rounds_to_converge"]
    assert record["messages"] > 0
    assert record["bytes"] > 0
    assert len(record["digest"]) == 64  # sha256 hex


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
