"""Swarm harness: supervisor building blocks plus one live 4-node swarm."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, SimulationError
from repro.runtime import swarm


class TestPorts:
    def test_free_udp_ports_distinct(self):
        ports = swarm._free_udp_ports(8)
        assert len(ports) == len(set(ports)) == 8
        assert all(1 <= port <= 65535 for port in ports)


class TestStatusFiles:
    def test_atomic_write_and_read(self, tmp_path):
        swarm._write_status(
            swarm._status_path(tmp_path, 0), {"node": 0, "round": 3}
        )
        swarm._write_status(
            swarm._status_path(tmp_path, 1), {"node": 1, "round": 2}
        )
        statuses = swarm.read_statuses(tmp_path)
        assert set(statuses) == {0, 1}
        assert statuses[0]["round"] == 3

    def test_torn_and_alien_files_skipped(self, tmp_path):
        (tmp_path / "node-0.json").write_text('{"node": 0, "rou', encoding="utf-8")
        (tmp_path / "node-1.json").write_text('{"no_node_key": 1}', encoding="utf-8")
        (tmp_path / "node-2.json").write_text(
            json.dumps({"node": 2, "round": 1}), encoding="utf-8"
        )
        (tmp_path / "unrelated.txt").write_text("x", encoding="utf-8")
        assert set(swarm.read_statuses(tmp_path)) == {2}

    def test_swarm_adjacency(self):
        statuses = {
            0: {"node": 0, "neighbors": [1, 3]},
            1: {"node": 1, "neighbors": []},
        }
        assert swarm.swarm_adjacency(statuses) == {0: [1, 3], 1: []}


def ring_statuses(n, round_index=5, done=False):
    """Fabricated statuses of a perfectly-converged ring-n overlay."""
    return {
        i: {
            "node": i,
            "round": round_index,
            "neighbors": sorted({(i - 1) % n, (i + 1) % n}),
            "done": done,
        }
        for i in range(n)
    }


def write_swarm(directory, statuses, n_nodes=4, shape="ring"):
    """A synthetic status directory: ``swarm.json`` plus one file per node."""
    swarm._write_status(
        directory / "swarm.json",
        {
            "n_nodes": n_nodes,
            "shape": shape,
            "seed": 1,
            "round_interval": 0.2,
            "max_rounds": 120,
        },
    )
    for node, record in statuses.items():
        swarm._write_status(swarm._status_path(directory, node), record)
    return directory


@pytest.fixture
def clock(monkeypatch):
    """The supervisor's clock, frozen; ``_sleep`` advances it instantly."""
    now = [0.0]
    monkeypatch.setattr(swarm, "_now", lambda: now[0])

    def sleep(seconds):
        now[0] += seconds

    monkeypatch.setattr(swarm, "_sleep", sleep)
    return now


def polled(directory, statuses, n_nodes):
    """An observer of ``statuses`` after its first poll."""
    observer = swarm.SwarmObserver(write_swarm(directory, statuses, n_nodes), "ring", n_nodes)
    observer.poll()
    return observer


class TestFeedCollector:
    """SwarmObserver.poll feeds its collector's gauges from the statuses."""

    def test_converged_ring(self, tmp_path):
        observer = polled(tmp_path, ring_statuses(6), 6)
        collector = observer.collector
        assert observer.converged is True
        assert collector.gauge_value("layers_converged") == pytest.approx(
            swarm.SWARM_LAYERS
        )
        assert collector.gauge_value("out_degree_mean", layer="overlay") == 2.0
        assert collector.gauge_value("swarm_nodes_reporting") == 6.0

    def test_partial_overlay_scales_gauge(self, tmp_path):
        statuses = ring_statuses(6)
        statuses[0]["neighbors"] = []  # node 0 lost both its edges
        observer = polled(tmp_path, statuses, 6)
        assert observer.converged is False
        gauge = observer.collector.gauge_value("layers_converged")
        assert 0.0 < gauge < swarm.SWARM_LAYERS

    def test_missing_node_blocks_convergence(self, tmp_path):
        statuses = ring_statuses(6)
        del statuses[3]
        observer = polled(tmp_path, statuses, 6)
        assert observer.converged is False
        assert observer.collector.gauge_value("swarm_nodes_reporting") == 5.0

    def test_empty_statuses(self, tmp_path):
        observer = polled(tmp_path, {}, 4)
        assert observer.converged is False
        assert observer.collector.gauge_value("layers_converged") == 0.0


class TestSwarmObserver:
    def test_converged_is_sticky(self, tmp_path):
        observer = polled(tmp_path, ring_statuses(4), 4)
        broken = ring_statuses(4, round_index=6)
        broken[0]["neighbors"] = [1]
        write_swarm(tmp_path, broken)
        observer.poll()
        assert observer.converged is True

    def test_finished_needs_all_nodes_done(self, tmp_path):
        statuses = ring_statuses(4, done=True)
        del statuses[2]
        observer = polled(tmp_path, statuses, 4)
        assert observer.finished is False  # three reporting nodes are not the swarm
        write_swarm(tmp_path, ring_statuses(4, done=True))
        observer.poll()
        assert observer.finished is True

    def test_monitor_observes_once_per_swarm_round(self, tmp_path):
        observer = polled(tmp_path, ring_statuses(4), 4)
        observer.poll()
        observer.poll()
        assert observer.monitor.rounds_checked == 1
        write_swarm(tmp_path, ring_statuses(4, round_index=6))
        observer.poll()
        assert observer.monitor.rounds_checked == 2
        assert observer.round == 6

    def test_no_observation_before_any_node_reports(self, tmp_path):
        observer = polled(tmp_path, {}, 4)
        assert observer.monitor.rounds_checked == 0

    def test_stall_raises_after_timeout(self, tmp_path, clock):
        statuses = ring_statuses(4)
        statuses[0]["neighbors"] = [1]
        observer = polled(tmp_path, statuses, 4)
        clock[0] += swarm.CHILD_STALL_TIMEOUT - 1
        observer.poll()
        clock[0] += 2
        with pytest.raises(SimulationError, match="no progress for 15s .4/4 nodes"):
            observer.poll()

    def test_progress_resets_the_stall_clock(self, tmp_path, clock):
        statuses = ring_statuses(4)
        statuses[0]["neighbors"] = [1]
        observer = polled(tmp_path, statuses, 4)
        for round_index in (6, 7, 8):
            clock[0] += swarm.CHILD_STALL_TIMEOUT - 1
            for record in statuses.values():
                record["round"] = round_index
            write_swarm(tmp_path, statuses)
            observer.poll()
        assert observer.round == 8

    def test_a_converged_swarm_never_stalls(self, tmp_path, clock):
        observer = polled(tmp_path, ring_statuses(4), 4)
        clock[0] += 10 * swarm.CHILD_STALL_TIMEOUT
        observer.poll()
        assert observer.converged

    def test_follow_stops_once_finished(self, tmp_path, clock):
        statuses = ring_statuses(4, done=True)
        statuses[0]["neighbors"] = [1]
        observer = swarm.SwarmObserver(write_swarm(tmp_path, statuses), "ring", 4)
        assert len(list(observer.follow())) == 1
        assert observer.finished and not observer.converged

    def test_attach_reads_the_metadata(self, tmp_path):
        observer = swarm.SwarmObserver.attach(write_swarm(tmp_path, {}, 6, "star"))
        assert (observer.shape, observer.n_nodes) == ("star", 6)
        assert observer.round_interval == 0.2

    def test_attach_without_metadata_fails_after_the_wait(self, tmp_path, clock):
        with pytest.raises(SimulationError, match="no swarm metadata"):
            swarm.SwarmObserver.attach(tmp_path, wait=1.0)
        assert clock[0] >= 1.0

    def test_attach_rejects_unreadable_metadata(self, tmp_path):
        (tmp_path / "swarm.json").write_text('{"shape": "ring"}', encoding="utf-8")
        with pytest.raises(SimulationError, match="unreadable swarm metadata"):
            swarm.SwarmObserver.attach(tmp_path)

    def test_report_carries_the_poll(self, tmp_path):
        report = polled(tmp_path, ring_statuses(4), 4).report()
        assert report.converged and report.rounds == 5
        assert report.verdict == "healthy"
        assert set(report.nodes) == {0, 1, 2, 3}
        assert report.status_dir == str(tmp_path)


class TestSwarmCli:
    """``watch --swarm``, ``report <dir>`` and ``swarm`` over synthetic
    status directories (no UDP)."""

    def test_watch_once_converged_exits_0(self, tmp_path, capsys):
        write_swarm(tmp_path, ring_statuses(4))
        assert main(["watch", "--swarm", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "(ring-4)" in out and "swarm nodes" in out

    def test_watch_once_not_converged_exits_1(self, tmp_path):
        statuses = ring_statuses(4)
        statuses[0]["neighbors"] = [1]
        write_swarm(tmp_path, statuses)
        assert main(["watch", "--swarm", str(tmp_path), "--once"]) == 1

    def test_watch_stalled_swarm_exits_2(self, tmp_path, clock, capsys):
        statuses = ring_statuses(4)
        statuses[0]["neighbors"] = [1]
        write_swarm(tmp_path, statuses)
        assert main(["watch", "--swarm", str(tmp_path)]) == 2
        assert "error: swarm made no progress" in capsys.readouterr().err
        assert clock[0] > swarm.CHILD_STALL_TIMEOUT

    def test_watch_alerts_writes_the_stream(self, tmp_path):
        write_swarm(tmp_path, ring_statuses(4))
        alerts = tmp_path / "alerts.jsonl"
        argv = ["watch", "--swarm", str(tmp_path), "--once", "--alerts", str(alerts)]
        assert main(argv) == 0
        assert alerts.exists()

    def test_watch_swarm_and_heal_are_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["watch", "--swarm", str(tmp_path), "--heal"])
        assert exit_info.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_report_converged_dir(self, tmp_path, capsys):
        write_swarm(tmp_path, ring_statuses(4))
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ring    4/4        yes" in out
        assert "healthy" in out

    def test_report_without_metadata_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert "no swarm metadata" in capsys.readouterr().err

    def test_swarm_prints_the_same_view(self, tmp_path, monkeypatch, capsys):
        def fake_run_swarm(**kwargs):
            observer = polled(tmp_path, ring_statuses(4), 4)
            return observer.report(), observer.collector

        monkeypatch.setattr(swarm, "run_swarm", fake_run_swarm)
        bench = tmp_path / "out.json"
        assert main(["swarm", "--nodes", "4", "--quiet", "--bench", str(bench)]) == 0
        swarm_out = capsys.readouterr().out
        assert main(["report", str(tmp_path)]) == 0
        report_out = capsys.readouterr().out
        assert report_out.strip() in swarm_out
        assert json.loads(bench.read_text(encoding="utf-8"))["converged"] is True


def make_report(**overrides):
    fields = dict(
        n_nodes=2,
        shape="ring",
        seed=1,
        round_interval=0.1,
        converged=True,
        rounds=7,
        verdict="healthy",
        nodes={
            0: {
                "node": 0,
                "round": 7,
                "neighbors": [1],
                "wire": {"datagrams_sent": 10, "bytes_sent": 900},
            },
            1: {
                "node": 1,
                "round": 7,
                "neighbors": [0],
                "wire": {"datagrams_sent": 12, "bytes_sent": 1100},
            },
        },
    )
    fields.update(overrides)
    return swarm.SwarmReport(**fields)


class TestBenchMerge:
    def test_report_bandwidth_sums_nodes(self):
        bandwidth = make_report().bandwidth()
        assert bandwidth["datagrams_sent"] == 22
        assert bandwidth["bytes_sent"] == 2000
        assert bandwidth["malformed"] == 0

    def test_writes_a_parseable_standalone_report_atomically(self, tmp_path):
        path = tmp_path / "swarm.json"
        path.write_text('{"torn": ', encoding="utf-8")  # a previous, torn file
        report = make_report()
        report.write(str(path))
        assert json.loads(path.read_text(encoding="utf-8")) == report.to_dict()
        # Replaced through a temp file, which does not outlive the write.
        assert [entry.name for entry in tmp_path.iterdir()] == [path.name]


class TestGuards:
    def test_swarm_needs_two_nodes(self):
        with pytest.raises(SimulationError, match=">= 2 nodes"):
            swarm.run_swarm(n_nodes=1)

    def test_non_finite_round_interval_fails_before_any_child(self, tmp_path, monkeypatch):
        def no_child(*args, **kwargs):
            raise AssertionError("a child was started")

        monkeypatch.setattr(swarm.subprocess, "Popen", no_child)
        with pytest.raises(ConfigurationError, match="round_interval"):
            swarm.run_swarm(n_nodes=2, round_interval=float("nan"), status_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_a_reused_status_directory_is_cleared_before_any_child(
        self, tmp_path, monkeypatch
    ):
        """The last run's statuses (all done, converged), event stream and
        flag are gone before the first child starts: left behind, they
        ended the next run at its first poll with their verdict and joined
        its merged events."""
        write_swarm(tmp_path, ring_statuses(4, done=True))
        (tmp_path / "node-0.jsonl").write_text("{}\n", encoding="utf-8")
        (tmp_path / swarm.STOP_FLAG).touch()
        present = []

        def first_child(*args, **kwargs):
            present.extend(sorted(path.name for path in tmp_path.iterdir()))
            raise OSError("no child in this test")

        monkeypatch.setattr(swarm.subprocess, "Popen", first_child)
        with pytest.raises(OSError, match="no child"):
            swarm.run_swarm(n_nodes=4, status_dir=str(tmp_path))
        assert present == ["swarm.json"]

    def test_module_main_rejects_supervisor_role(self):
        with pytest.raises(SystemExit, match="child entry point"):
            swarm.main([])


@pytest.mark.slow
def test_run_swarm_four_nodes(tmp_path):
    """A real 4-process UDP swarm converges and reports healthy."""
    report, collector = swarm.run_swarm(
        n_nodes=4,
        shape="ring",
        seed=3,
        round_interval=0.1,
        max_rounds=80,
        status_dir=str(tmp_path),
    )
    assert report.converged
    assert report.verdict == "healthy"
    assert report.alerts == []
    assert set(report.nodes) == {0, 1, 2, 3}
    assert report.bandwidth()["datagrams_sent"] > 0
    assert report.bandwidth()["malformed"] == 0
    assert collector.gauge_value("swarm_nodes_reporting") == 4.0
    assert (tmp_path / "swarm.json").exists()
    assert (tmp_path / swarm.STOP_FLAG).exists()
