"""Tests for the bench harness: workload matrix, report schema, artifacts."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.perf.bench import (
    SEEDS_PER_SCALE,
    BenchReport,
    WorkloadSummary,
    format_bench,
    run_bench,
    write_bench,
)
from repro.perf.workloads import Workload, run_cell, workload_matrix


def test_workload_matrices_are_fixed_and_distinct():
    ci = workload_matrix("ci")
    full = workload_matrix("full")
    assert ci and full and ci != full
    for matrix in (ci, full):
        names = [w.name for w in matrix]
        assert len(names) == len(set(names))
        for workload in matrix:
            assert workload.name == f"{workload.shape}-{workload.n_nodes}"
    # Default scale is ci (unknown scales fall back to it too).
    assert workload_matrix() == ci


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


def _tiny_report() -> BenchReport:
    """A hand-built report so artifact tests stay instant."""
    workload = Workload("ring-32", "ring", 32)
    results = [
        run_cell(workload.config(seed), workload.max_rounds).to_dict()
        for seed in (1, 2)
    ]
    return BenchReport(
        scale="ci",
        master_seed=1,
        parallel=1,
        summaries=[
            WorkloadSummary(
                workload=workload,
                seeds=(1, 2),
                results=results,
                wall_times=[0.01, 0.02],
            )
        ],
    )


def test_report_dict_carries_the_required_trajectory_fields():
    cell = _tiny_report().to_dict()
    assert cell["schema"] == 1
    assert cell["suite"] == "gossip"
    summary = cell["workloads"][0]
    # The trajectory contract: wall time, rounds-to-convergence, and
    # message/byte counts per workload.
    assert set(summary["wall_time_s"]) == {"mean", "min", "max"}
    assert "mean" in summary["rounds_to_converge"]
    assert summary["messages"] > 0
    assert summary["bytes"] > 0
    assert len(summary["digests"]) == 2
    assert cell["totals"]["messages"] == summary["messages"]


def test_format_bench_renders_every_workload_row():
    report = _tiny_report()
    table = format_bench(report)
    assert "ring-32" in table
    assert "wall s (mean)" in table
    assert "scale=ci" in table


def test_write_bench_writes_json_and_table(tmp_path):
    report = _tiny_report()
    json_path = tmp_path / "deep" / "BENCH_gossip.json"
    written = write_bench(
        report,
        json_path=str(json_path),
        results_dir=str(tmp_path / "results"),
    )
    assert str(json_path) in written
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert payload["suite"] == "gossip"
    table = (tmp_path / "results" / "bench_gossip.txt").read_text(encoding="utf-8")
    assert "ring-32" in table


def _swarm_report():
    from repro.runtime.swarm import SwarmReport

    return SwarmReport(
        n_nodes=2, shape="ring", seed=1, round_interval=0.1,
        converged=True, rounds=3, verdict="healthy",
    )


@pytest.mark.parametrize("writer", ["perf", "scale", "swarm"])
def test_truncated_bench_file_fails_every_writer(tmp_path, writer):
    """One owner, one policy: a trajectory that does not parse is evidence
    of a torn write — every section writer must refuse loudly, name the
    path, and leave the bytes on disk exactly as they were."""
    from repro.runtime.swarm import write_swarm_bench
    from repro.scale.bench import write_scale_bench

    path = tmp_path / "BENCH_gossip.json"
    torn = '{"scale_tiers": {"ci": {"tier": "ci"}}, "workloads": [{"na'
    path.write_text(torn, encoding="utf-8")
    write = {
        "perf": lambda: write_bench(
            _tiny_report(), json_path=str(path), results_dir=None
        ),
        "scale": lambda: write_scale_bench(
            {"tier": "ci", "cells": []}, json_path=str(path)
        ),
        "swarm": lambda: write_swarm_bench(_swarm_report(), str(path)),
    }[writer]
    with pytest.raises(ConfigurationError, match="BENCH_gossip.json"):
        write()
    assert path.read_text(encoding="utf-8") == torn
    assert [entry.name for entry in tmp_path.iterdir()] == [path.name]


def test_run_bench_groups_seeds_per_workload(monkeypatch):
    """End-to-end over a stubbed 2-cell matrix: grouping, seed derivation,
    and summary assembly — without paying for the real matrix."""
    import repro.perf.bench as bench_module

    tiny = (Workload("ring-24", "ring", 24), Workload("clique-12", "clique", 12))
    monkeypatch.setattr(bench_module, "workload_matrix", lambda scale: tiny)
    report = run_bench(scale="ci", seeds=2, parallel=1)
    assert [s.workload.name for s in report.summaries] == ["ring-24", "clique-12"]
    for summary in report.summaries:
        assert len(summary.seeds) == 2
        assert len(set(summary.seeds)) == 2
        assert len(summary.results) == 2
        assert all(wall >= 0 for wall in summary.wall_times)
        names = {record["workload"] for record in summary.results}
        assert names == {summary.workload.name}


def test_seeds_per_scale_presets():
    assert SEEDS_PER_SCALE["ci"] < SEEDS_PER_SCALE["full"]


def test_instrumented_pass_verifies_digests_with_and_without_flow(monkeypatch):
    """obs=True re-runs each cell bare, instrumented, and provenance-traced;
    all three must reproduce the first pass's digest, and the section must
    carry both overhead fractions for the trajectory."""
    import repro.perf.bench as bench_module

    tiny = (Workload("ring-24", "ring", 24),)
    monkeypatch.setattr(bench_module, "workload_matrix", lambda scale: tiny)
    original = bench_module._instrumented_pass
    monkeypatch.setattr(
        bench_module,
        "_instrumented_pass",
        lambda tasks, outcomes: original(tasks, outcomes, repeats=1),
    )
    report = run_bench(scale="ci", seeds=2, parallel=1, obs=True)
    obs = report.obs
    assert obs["digests_identical"], obs["digest_mismatches"]
    assert obs["cells"] == 2
    assert obs["flow_deliveries"] > 0
    assert obs["counter_increments"] > 0
    for key in ("overhead_fraction", "flow_overhead_fraction"):
        assert isinstance(obs[key], float)
    # The traced collector observed real flow: deliveries imply latency data.
    assert report.obs_collector is not None


def test_committed_trajectory_gates_instrumentation_overhead():
    """The checked-in BENCH_gossip.json is the gate: zero interference
    (digests identical across bare/instrumented/traced runs) and counter
    hot-path overhead below the 6.5 % recorded before pre-resolved keys."""
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[2] / "BENCH_gossip.json"
    obs = json.loads(path.read_text(encoding="utf-8"))["obs"]
    assert obs["digests_identical"] is True
    assert obs["overhead_fraction"] < 0.065
    # Provenance tracing is opt-in and costs real work; the gate only pins
    # that the cost was measured and stayed within an order of magnitude.
    assert 0.0 <= obs["flow_overhead_fraction"] < 1.0
    assert obs["flow_deliveries"] > 0
