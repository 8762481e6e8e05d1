"""Swarm harness: supervisor building blocks plus one live 4-node swarm."""

from __future__ import annotations

import json

import pytest

from repro.obs.collector import Collector
from repro.runtime import swarm
from repro.shapes import make_shape


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


def ring_statuses(n):
    """Fabricated statuses of a perfectly-converged ring-n overlay."""
    return {
        i: {"node": i, "round": 5, "neighbors": sorted({(i - 1) % n, (i + 1) % n})}
        for i in range(n)
    }


class TestFeedCollector:
    def test_converged_ring(self):
        collector = Collector(gauge_every=1)
        shape = make_shape("ring")
        assert swarm.feed_collector(collector, ring_statuses(6), shape, 6) is True
        assert collector.gauge_value("layers_converged") == pytest.approx(
            swarm.SWARM_LAYERS
        )
        assert collector.gauge_value("out_degree_mean", layer="overlay") == 2.0
        assert collector.gauge_value("swarm_nodes_reporting") == 6.0

    def test_partial_overlay_scales_gauge(self):
        collector = Collector(gauge_every=1)
        shape = make_shape("ring")
        statuses = ring_statuses(6)
        statuses[0]["neighbors"] = []  # node 0 lost both its edges
        assert swarm.feed_collector(collector, statuses, shape, 6) is False
        gauge = collector.gauge_value("layers_converged")
        assert 0.0 < gauge < swarm.SWARM_LAYERS

    def test_missing_node_blocks_convergence(self):
        collector = Collector(gauge_every=1)
        shape = make_shape("ring")
        statuses = ring_statuses(6)
        del statuses[3]
        assert swarm.feed_collector(collector, statuses, shape, 6) is False
        assert collector.gauge_value("swarm_nodes_reporting") == 5.0

    def test_empty_statuses(self):
        collector = Collector(gauge_every=1)
        assert (
            swarm.feed_collector(collector, {}, make_shape("ring"), 4) is False
        )
        assert collector.gauge_value("layers_converged") == 0.0


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
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match=">= 2 nodes"):
            swarm.run_swarm(n_nodes=1)

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
