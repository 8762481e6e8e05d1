"""The benchmark's own tests, at ``--smoke`` size (a few seconds in all).

Run with ``python -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from bench.workloads import WORKLOADS, ror_source, sub_seeds, victims  # noqa: E402

EXACT_UNITS = ("count", "bytes", "rounds")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke_reports(tmp_path_factory):
    """Two complete smoke runs of the same seed."""
    reports = []
    for label in ("a", "b"):
        path = tmp_path_factory.mktemp("smoke") / f"{label}.json"
        done = bench("--smoke", "--out", str(path))
        assert done.returncode == 0, done.stdout + done.stderr
        reports.append((path, json.loads(path.read_text())))
    return reports


def test_benchmark_json_repeats_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS]
    assert spec["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert max(m["bound"] for m in spec["end_to_end"]) == 0.25
    assert {m["name"]: m["bound"] for m in spec["end_to_end"]}["setup_s"] == 0.25


def test_generators_are_functions_of_the_seed():
    assert sub_seeds(7, 5) == sub_seeds(7, 5)
    assert sub_seeds(7, 5)[0] == 7 and len(set(sub_seeds(7, 5))) == 5
    assert sub_seeds(7, 5)[1:] != sub_seeds(11, 5)[1:]
    assert victims(range(40), 7) == victims(range(40), 7) and len(victims(range(40), 7)) == 10
    source = ror_source(rings=5, ring_size=8)
    assert source.count("component ring") == 5 and source.count("link ring") == 5
    assert "nodes 40" in source and "rank(4)" in source


def test_every_metric_is_reported_with_its_unit(smoke_reports):
    _, report = smoke_reports[0]
    assert report["correct"] and not report["cross_check_failures"]
    assert list(report["workloads"]) == [w.name for w in WORKLOADS]
    for name, result in report["workloads"].items():
        assert result["failed"] == 0 and result["attempted"] == 3, name
        assert {k: v["unit"] for k, v in result["end_to_end"].items()} == {
            metric: unit for metric, unit, _, _ in END_TO_END
        }, name
        assert all(v["value"] > 0 for v in result["end_to_end"].values()), name
        units = {k: v["unit"] for k, v in result["per_layer"].items()}
        units.pop("obs.overhead_fraction", None)  # added when both *_ror ran
        assert units == {metric: unit for metric, unit, _ in PER_LAYER}, name
    assert "obs.overhead_fraction" in report["workloads"]["traced_ror"]["per_layer"]


def test_the_layers_a_workload_uses_are_the_ones_it_reports(smoke_reports):
    workloads = smoke_reports[0][1]["workloads"]

    def value(workload, metric):
        return workloads[workload]["per_layer"][metric]["value"]

    for workload in ("assembly_ror", "repair_ror", "traced_ror"):
        for layer in ("peer_sampling", "uo1", "uo2", "core", "port_selection", "port_connection"):
            assert value(workload, f"{layer}.busy_s") > 0
            assert value(workload, f"{layer}.exchanges") > 0
            assert value(workload, f"{layer}.bytes") > 0
        assert value(workload, "overlay.busy_s") == 0
        assert value(workload, "uo2.converged_round") >= 1
        assert value(workload, "dsl.source_bytes") > 0
    assert value("repair_ror", "repair.victims") == 10
    assert value("repair_ror", "repair.dead_purged") > 0
    assert value("repair_ror", "repair.role_changes") > 0
    assert value("assembly_ror", "repair.victims") == 0
    assert value("traced_ror", "obs.flow_deliveries") > 0
    assert value("assembly_ror", "obs.flow_deliveries") == 0
    assert value("wire_grid", "wire.frames") > 0 and value("wire_grid", "wire.codec_s") > 0
    assert value("wire_grid", "overlay.busy_s") > 0 and value("wire_grid", "uo2.busy_s") == 0
    assert value("assembly_ror", "wire.frames") == 0
    assert value("scale_ring", "shard.messages") > 0
    for phase in ("request", "respond", "absorb", "barrier"):
        assert value("scale_ring", f"shard.{phase}_s") > 0
    assert value("scale_ring", "shard.worker_cpu_s") > 0
    assert value("wire_grid", "shard.messages") == 0


def test_the_span_tree_closes(smoke_reports):
    for name, result in smoke_reports[0][1]["workloads"].items():
        per_layer = {k: v["value"] for k, v in result["per_layer"].items()}
        assert 0 <= per_layer["bench.trace_residual_fraction"] <= 0.05, name
        rounds = sum(end - start for _, _, span, start, end in result["spans"] if span == "round")
        parts = (
            sum(v for k, v in per_layer.items() if k.endswith(".busy_s"))
            + per_layer["engine.self_s"]
            + per_layer["convergence.observe_s"]
            + sum(per_layer[f"shard.{p}_s"] for p in ("request", "respond", "absorb", "barrier"))
        )
        assert parts == pytest.approx(rounds, rel=0.05), name


def test_exact_counts_repeat(smoke_reports):
    first, second = (report["workloads"] for _, report in smoke_reports)
    for name in first:
        for key in ("seeds", "digests", "rounds", "traffic_bytes"):
            assert first[name]["samples"][key] == second[name]["samples"][key], (name, key)
        for metric, unit, _ in PER_LAYER:
            if unit in EXACT_UNITS:
                assert (
                    first[name]["per_layer"][metric] == second[name]["per_layer"][metric]
                ), (name, metric)


def test_traced_ror_builds_what_assembly_ror_builds(smoke_reports):
    workloads = smoke_reports[0][1]["workloads"]
    for key in ("digests", "rounds", "traffic_bytes"):
        assert workloads["traced_ror"]["samples"][key] == workloads["assembly_ror"]["samples"][key]


@pytest.mark.parametrize("trace, catalogue", [("0", END_TO_END), ("1", PER_LAYER)])
def test_the_last_line_is_the_drivers(trace, catalogue):
    done = bench("--workload", "wire_grid", "--seed", "11", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        entry[0]: entry[1] for entry in catalogue
    }
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_an_injected_failure_fails_every_cell(workload):
    done = bench("--workload", workload, "--smoke", "--max-rounds", "1")
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 3  # failed_fraction == 1


def test_compare_same_worse_and_mismatched(smoke_reports, tmp_path):
    path, report = smoke_reports[0]
    done = bench("compare", str(path), str(path))
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert len(rows) == len(WORKLOADS) * (len(END_TO_END) + 1)
    assert {row[-1] for row in rows} == {"same"}

    slower = copy.deepcopy(report)
    samples = slower["workloads"]["wire_grid"]["samples"]
    samples["cpu_s"] = [1.5 * value for value in samples["cpu_s"]]
    samples["rounds"][0] += 1
    slower_path = tmp_path / "slower.json"
    slower_path.write_text(json.dumps(slower))
    done = bench("compare", str(path), str(slower_path))
    assert done.returncode == 1
    worse = {tuple(line.split()[:2]) for line in done.stdout.splitlines() if line.endswith("worse")}
    assert worse == {("wire_grid", "cpu_s"), ("wire_grid", "rounds")}

    other = copy.deepcopy(report)
    other["workloads"]["wire_grid"]["seed"] = 11
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    assert bench("compare", str(path), str(other_path)).returncode == 2


def test_without_the_program_it_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "assembly_ror", "--seed", "7", "--seconds", "10",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
