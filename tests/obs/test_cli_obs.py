"""CLI surface of the observability subsystem: repro report / watch / --obs."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

TOPOLOGY = """
topology ObsDemo {
    nodes 24
    component ring : ring(size = 16) { port gate : lowest_id }
    component cell : clique(size = 8) { port gate : lowest_id }
    link ring.gate -- cell.gate
}
"""


@pytest.fixture
def topology_file(tmp_path):
    path = tmp_path / "demo.topo"
    path.write_text(TOPOLOGY, encoding="utf-8")
    return str(path)


class TestObsCommand:
    """The instrumented run and its exports, through ``repro report``."""

    def test_instrumented_run_prints_telemetry(self, topology_file, capsys):
        assert main(["report", topology_file, "--gauge-every", "2"]) == 0
        out = capsys.readouterr().out
        assert "convergence (rounds)" in out
        assert "counters" in out
        assert "exchanges" in out
        assert "peer_sampling" in out
        assert "deploy" in out

    def test_exports_jsonl_and_prometheus(self, topology_file, tmp_path, capsys):
        jsonl = tmp_path / "events.jsonl"
        prom = tmp_path / "snapshot.prom"
        assert (
            main(
                [
                    "report",
                    topology_file,
                    "--jsonl",
                    str(jsonl),
                    "--prom",
                    str(prom),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "convergence (rounds)" in out
        assert f"wrote {jsonl}" in out and f"wrote {prom}" in out
        first = json.loads(jsonl.read_text(encoding="utf-8").splitlines()[0])
        assert first["kind"] == "deploy"
        assert "repro_exchanges_total" in prom.read_text(encoding="utf-8")

    def test_summarizes_jsonl_post_mortem(self, topology_file, tmp_path, capsys):
        jsonl = tmp_path / "events.jsonl"
        assert main(["report", topology_file, "--jsonl", str(jsonl)]) == 0
        assert "convergence (rounds)" in capsys.readouterr().out
        assert main(["report", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "deploy" in out
        assert "layer_converged" in out


class TestReportCommand:
    def test_consolidated_report(self, topology_file, capsys):
        assert main(["report", topology_file, "--gauge-every", "4"]) == 0
        out = capsys.readouterr().out
        # The three report families share one registry rendering.
        assert "convergence (rounds)" in out
        assert "bandwidth (bytes/node/round)" in out
        assert "counters" in out
        assert "events" in out

    def test_profile_flag_adds_self_time_section(self, topology_file, capsys):
        assert main(["report", topology_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "span profile (self-time)" in out
        assert "layer:peer_sampling" in out
        assert "self %" in out


class TestFlowFlag:
    def test_obs_flow_prints_information_flow_section(self, topology_file, capsys):
        assert main(["report", topology_file, "--flow"]) == 0
        out = capsys.readouterr().out
        assert "convergence (rounds)" in out
        assert "information flow" in out
        assert "critical path" in out
        assert "->" in out


class TestWatchCommand:
    def test_once_renders_snapshot_and_exits_zero(self, topology_file, capsys):
        assert main(["watch", topology_file, "--once", "--gauge-every", "2"]) == 0
        out = capsys.readouterr().out
        assert "repro watch" in out and "— round" in out
        assert "population:" in out
        assert "health:" in out
        assert "information flow" in out

    def test_once_writes_alert_stream(self, topology_file, tmp_path, capsys):
        alerts = tmp_path / "alerts.jsonl"
        assert (
            main(
                [
                    "watch",
                    topology_file,
                    "--once",
                    "--alerts",
                    str(alerts),
                ]
            )
            == 0
        )
        # A healthy converging run has no alerts; the stream still exists
        # (empty file) so operators can tail it unconditionally.
        assert alerts.exists()
        for line in alerts.read_text(encoding="utf-8").splitlines():
            assert json.loads(line)["kind"] in ("alert", "alert_cleared")

    def test_interval_below_one_is_rejected_at_parse_time(self, topology_file):
        # --interval 0 would run zero-round chunks and never advance.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["watch", topology_file, "--interval", "0"])
        assert exc.value.code == 2


class TestErrorExits:
    def test_missing_input_file_exits_2_with_message(self, capsys):
        assert main(["report", "/nonexistent/stream.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "stream.jsonl" in err

    def test_corrupt_jsonl_exits_2_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:1" in err
        assert "JSONL" in err

    def test_missing_topology_exits_2(self, capsys):
        assert main(["report", "/nonexistent/demo.topo"]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.slow
class TestFaultsObsFlag:
    def test_partition_scenario_writes_stream(self, tmp_path, capsys):
        jsonl = tmp_path / "faults.jsonl"
        alerts = tmp_path / "alerts.jsonl"
        code = main(
            [
                "faults",
                "--scenario",
                "partition",
                "--nodes",
                "48",
                "--obs",
                str(jsonl),
                "--alerts",
                str(alerts),
                "--gauge-every",
                "1",
            ]
        )
        assert code == 0
        kinds = [
            json.loads(line)["kind"]
            for line in jsonl.read_text(encoding="utf-8").splitlines()
        ]
        assert "deploy" in kinds
        assert "partition" in kinds
        assert "heal" in kinds
        assert "scenario_result" in kinds
        assert (tmp_path / "faults.jsonl.prom").exists()
        # The health monitor rode along: the partition stalls convergence,
        # the heal clears it, and the alert stream holds both edges.
        alert_kinds = [
            json.loads(line)["kind"]
            for line in alerts.read_text(encoding="utf-8").splitlines()
        ]
        assert "alert" in alert_kinds
        assert "alert_cleared" in alert_kinds
        assert "health:" in capsys.readouterr().out
