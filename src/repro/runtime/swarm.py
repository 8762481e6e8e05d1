"""The swarm harness: N real UDP node processes under one supervisor.

``run_swarm`` launches ``n_nodes`` local processes, each running one
:class:`~repro.runtime.net.NetRunner` (``python -m repro.runtime.swarm
--node ...``), wires node 0 as the bootstrap rendezvous, and supervises
the run through *status files*: every child atomically rewrites
``status_dir/node-<i>.json`` after each round with its overlay
neighbourhood and wire-level traffic counters. The supervisor polls the
directory, assembles the swarm-wide adjacency, and feeds the same
:class:`~repro.obs.collector.Collector` + :class:`~repro.obs.health.HealthMonitor`
pair the simulator uses — so ``repro watch --swarm`` renders a live swarm
with the exact dashboard, alert rules, and Prometheus exporter that watch
simulated runs. Convergence is declared by the shape's own
:meth:`~repro.shapes.base.Shape.converged` test, after which a ``STOP``
flag file winds the children down cleanly.

The supervisor process is wall-clock-driven by nature (it paces polls and
enforces deadlines); like :mod:`repro.runtime.net` it confines clock reads
to :func:`~repro.runtime.net._now` / :func:`~repro.runtime.net._sleep`.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import socket
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.runtime.net import _now, _sleep
from repro.shapes import make_shape

#: Name of the wind-down flag file inside the status directory.
STOP_FLAG = "STOP"

#: The two layers every swarm node runs (peer sampling + overlay).
SWARM_LAYERS = 2

#: Seconds of status-file silence before a child is presumed crashed.
CHILD_STALL_TIMEOUT = 15.0


def _free_udp_ports(n: int, host: str = "127.0.0.1") -> List[int]:
    """``n`` distinct currently-free UDP ports on ``host``.

    The classic bind-to-zero trick: hold all sockets open until every port
    is allocated so the OS cannot hand out duplicates, then release them
    for the children. A child racing an unrelated process for the port is
    possible but harmless — the bind fails fast and the supervisor reports
    the dead child.
    """
    sockets = []
    try:
        for _ in range(n):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _status_path(status_dir: pathlib.Path, node_index: int) -> pathlib.Path:
    return status_dir / f"node-{node_index}.json"


def _write_status(path: pathlib.Path, payload: Dict[str, Any]) -> None:
    """Atomic rewrite (tmp + rename) so the supervisor never reads a torn file."""
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def read_statuses(status_dir: pathlib.Path) -> Dict[int, Dict[str, Any]]:
    """Latest per-node status records, skipping torn/missing files."""
    statuses: Dict[int, Dict[str, Any]] = {}
    for path in sorted(status_dir.glob("node-*.json")):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue  # mid-rename or not yet written
        node = record.get("node")
        if isinstance(node, int):
            statuses[node] = record
    return statuses


def swarm_adjacency(statuses: Dict[int, Dict[str, Any]]) -> Dict[int, List[int]]:
    """Overlay adjacency (rank -> neighbour ranks) from status records."""
    return {
        node: list(record.get("neighbors", ())) for node, record in statuses.items()
    }


# ---------------------------------------------------------------------------
# Child process: one UDP node publishing status after every round.
# ---------------------------------------------------------------------------


def _swarm_node(argv: Optional[List[str]] = None) -> int:
    """Entry point of one swarm node process (deep-lint root).

    Builds the ``net`` runner from CLI arguments, then publishes a status
    file after every round until the supervisor raises the STOP flag or
    ``max_rounds`` elapse.
    """
    from repro.runtime.api import RunnerConfig, make_runner

    parser = argparse.ArgumentParser(prog="repro.runtime.swarm --node")
    parser.add_argument("--node-index", type=int, required=True)
    parser.add_argument("--n-nodes", type=int, required=True)
    parser.add_argument("--shape", default="ring")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--rendezvous", default="")
    parser.add_argument("--round-interval", type=float, default=0.2)
    parser.add_argument("--max-rounds", type=int, default=120)
    parser.add_argument("--status-dir", required=True)
    args = parser.parse_args(argv)

    from repro.obs.collector import Collector
    from repro.obs.flow import FlowTracer
    from repro.runtime.telemetry import MetricsServer, TelemetryStream

    status_dir = pathlib.Path(args.status_dir)
    status_path = _status_path(status_dir, args.node_index)
    stop_flag = status_dir / STOP_FLAG
    config = RunnerConfig(
        kind="net",
        n_nodes=args.n_nodes,
        shape=args.shape,
        seed=args.seed,
        node_index=args.node_index,
        port=args.port,
        rendezvous=args.rendezvous,
        round_interval=args.round_interval,
        max_rounds=args.max_rounds,
    )
    runner = make_runner(config)
    # The swarm is the observed deployment: every node traces (flow tags,
    # RTT histograms, Lamport clock), serves a local /metrics endpoint,
    # and streams its events incrementally to node-<i>.jsonl.
    collector = Collector(gauge_every=0, flow=FlowTracer())
    collector.bind_round_source(lambda: runner.round)
    runner.obs = collector
    server = MetricsServer(collector)
    server.start()
    stream = TelemetryStream(str(status_dir / f"node-{args.node_index}.jsonl"))

    def publish(done: bool) -> None:
        _write_status(
            status_path,
            {
                "node": runner.node_id,
                "round": runner.round,
                "port": runner.port,
                "neighbors": sorted(runner.neighbors()),
                "peers_known": len(runner.directory.peers),
                "alive": runner.directory.alive_count(),
                "wire": runner.wire_stats(),
                "peer": runner.peer_stats(),
                "metrics_port": server.port,
                "lamport": runner.endpoint.lamport.read(),
                "flow": collector.flow.to_state(),
                "rtt": {
                    layer: histogram.to_dict()
                    for (name, layer), histogram in collector.histograms.items()
                    if name == "gossip_rtt"
                },
                "done": done,
            },
        )

    def on_round(_runner: Any, round_index: int) -> bool:
        wire_stats = runner.wire_stats()
        collector.emit(
            "node_round",
            node=runner.node_id,
            round=round_index,
            peers_known=len(runner.directory.peers),
            neighbors=len(runner.neighbors()),
            bytes_sent=wire_stats["bytes_sent"],
            bytes_received=wire_stats["bytes_received"],
            lamport=runner.endpoint.lamport.read(),
        )
        publish(done=False)
        stream.flush(collector)
        return stop_flag.exists()

    runner.on_round = on_round
    collector.emit("node_up", node=args.node_index)
    try:
        runner.run(args.max_rounds)
        publish(done=True)
        stream.flush(collector)
    finally:
        server.close()
        runner.close()
    return 0


# ---------------------------------------------------------------------------
# Supervisor: spawn, observe, verdict.
# ---------------------------------------------------------------------------


@dataclass
class SwarmReport:
    """What one supervised swarm run produced."""

    n_nodes: int
    shape: str
    seed: int
    round_interval: float
    converged: bool
    rounds: int
    verdict: str
    alerts: List[Dict[str, Any]] = field(default_factory=list)
    #: Final per-node status records (wire counters, neighbourhoods).
    nodes: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    status_dir: str = ""
    #: Cross-node flow report: merged FlowTracer summary (per-layer
    #: propagation latencies, flow-graph size, critical path), or ``None``
    #: when no node published flow state.
    flow: Optional[Dict[str, Any]] = None
    #: Swarm-wide gossip RTT summary per layer (merged histograms).
    rtt: Dict[str, Any] = field(default_factory=dict)

    def bandwidth(self) -> Dict[str, int]:
        """Swarm-wide datagram totals summed over the final statuses."""
        totals = {
            "datagrams_sent": 0,
            "datagrams_received": 0,
            "bytes_sent": 0,
            "bytes_received": 0,
            "malformed": 0,
            "duplicates": 0,
        }
        for record in self.nodes.values():
            for key in totals:
                totals[key] += int(record.get("wire", {}).get(key, 0))
        return totals

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_nodes": self.n_nodes,
            "shape": self.shape,
            "seed": self.seed,
            "round_interval": self.round_interval,
            "converged": self.converged,
            "rounds": self.rounds,
            "verdict": self.verdict,
            "alerts": list(self.alerts),
            "bandwidth": self.bandwidth(),
            "flow": self.flow,
            "rtt": dict(self.rtt),
            "nodes": {
                str(node): {
                    "round": record.get("round", 0),
                    "neighbors": list(record.get("neighbors", ())),
                    "wire": dict(record.get("wire", {})),
                    "metrics_port": record.get("metrics_port", 0),
                    "lamport": record.get("lamport", 0),
                }
                for node, record in sorted(self.nodes.items())
            },
        }

    def write(self, json_path: str) -> None:
        """The report as one standalone JSON document, replaced atomically."""
        _write_status(pathlib.Path(json_path), self.to_dict())


def feed_collector(
    collector: Any,
    statuses: Dict[int, Dict[str, Any]],
    shape: Any,
    n_nodes: int,
) -> bool:
    """Refresh the collector's gauges from the latest statuses.

    Returns whether the shape's convergence criterion holds. The
    ``layers_converged`` gauge is scaled to the swarm's two-layer stack by
    the fraction of target edges realized, so
    :class:`~repro.obs.health.StalledConvergence` sees monotone progress
    while the overlay forms and only trips on a genuine stall.
    """
    adjacency = swarm_adjacency(statuses)
    total_edges = sum(
        len(shape.target_neighbors(rank, n_nodes)) for rank in range(n_nodes)
    )
    missing = len(shape.missing_edges(adjacency, n_nodes)) if total_edges else 0
    satisfied = (total_edges - missing) / total_edges if total_edges else 1.0
    converged = len(statuses) == n_nodes and shape.converged(adjacency, n_nodes)
    collector.gauge("layers_converged", SWARM_LAYERS * satisfied)
    degrees = [len(record.get("neighbors", ())) for record in statuses.values()]
    if degrees:
        collector.gauge(
            "out_degree_mean", sum(degrees) / len(degrees), layer="overlay"
        )
        collector.gauge("out_degree_max", float(max(degrees)), layer="overlay")
    collector.gauge("swarm_nodes_reporting", float(len(statuses)))
    merge_telemetry(collector, statuses)
    return converged


def merge_telemetry(
    collector: Any, statuses: Dict[int, Dict[str, Any]]
) -> None:
    """Merge per-node flow state and wire histograms into the collector.

    Each node publishes its own :class:`~repro.obs.flow.FlowTracer` dump
    and per-layer RTT histograms; the supervisor rebuilds the swarm-wide
    view on every poll (statuses are cumulative, so rebuild-from-scratch
    is the merge that cannot double-count).
    """
    from repro.obs.collector import Histogram
    from repro.obs.flow import merge_flow_states

    flow_states = [record.get("flow") for record in statuses.values()]
    if any(flow_states):
        try:
            collector.flow = merge_flow_states(flow_states)
        except (KeyError, TypeError, ValueError):
            pass  # a malformed dump degrades to no flow report, not a crash

    merged: Dict[str, Histogram] = {}
    for record in statuses.values():
        for layer, dump in (record.get("rtt") or {}).items():
            try:
                existing = merged.get(layer)
                if existing is None:
                    merged[layer] = Histogram.from_dict(dump)
                else:
                    existing.merge_dict(dump)
            except (AttributeError, KeyError, TypeError, ValueError):
                continue  # skip one node's bad dump, keep the rest
    for layer, histogram in merged.items():
        collector.histograms[("gossip_rtt", layer)] = histogram


def run_swarm(
    n_nodes: int = 8,
    shape: str = "ring",
    seed: int = 1,
    round_interval: float = 0.2,
    max_rounds: int = 120,
    status_dir: Optional[str] = None,
    progress: Optional[Callable[[int, Dict[int, Dict[str, Any]], str], None]] = None,
) -> Tuple[SwarmReport, Any]:
    """Launch and supervise a local UDP swarm; returns (report, collector).

    ``progress``, when given, is invoked after every supervisor poll with
    ``(poll_round, statuses, verdict)`` — the hook ``repro watch --swarm``
    renders from. The collector is returned alongside the report so
    callers can export the telemetry (Prometheus snapshot, JSONL stream).
    """
    from repro.obs.collector import Collector
    from repro.obs.health import HealthMonitor

    if n_nodes < 2:
        raise SimulationError(f"a swarm needs >= 2 nodes, got {n_nodes}")
    shape_obj = make_shape(shape)
    directory = pathlib.Path(status_dir) if status_dir else None
    if directory is None:
        import tempfile

        directory = pathlib.Path(tempfile.mkdtemp(prefix="repro-swarm-"))
    directory.mkdir(parents=True, exist_ok=True)
    stop_flag = directory / STOP_FLAG
    if stop_flag.exists():
        stop_flag.unlink()
    # Swarm metadata: lets `repro watch --swarm DIR` attach without being
    # told the shape or size.
    _write_status(
        directory / "swarm.json",
        {
            "n_nodes": n_nodes,
            "shape": shape,
            "seed": seed,
            "round_interval": round_interval,
            "max_rounds": max_rounds,
        },
    )

    ports = _free_udp_ports(n_nodes)
    rendezvous = f"127.0.0.1:{ports[0]}"
    package_root = str(pathlib.Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root, env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)

    children: List[subprocess.Popen] = []
    collector = Collector(gauge_every=1)
    monitor = HealthMonitor(collector, expected_layers=SWARM_LAYERS)
    converged = False
    statuses: Dict[int, Dict[str, Any]] = {}
    poll_round = 0
    try:
        for index in range(n_nodes):
            command = [
                sys.executable,
                "-m",
                "repro.runtime.swarm",
                "--node",
                "--node-index",
                str(index),
                "--n-nodes",
                str(n_nodes),
                "--shape",
                shape,
                "--seed",
                str(seed),
                "--port",
                str(ports[index]),
                "--rendezvous",
                "" if index == 0 else rendezvous,
                "--round-interval",
                str(round_interval),
                "--max-rounds",
                str(max_rounds),
                "--status-dir",
                str(directory),
            ]
            children.append(
                subprocess.Popen(
                    command,
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                )
            )

        deadline = _now() + max_rounds * round_interval + 30.0
        last_progress = _now()
        max_seen_round = 0
        max_seen_nodes = 0
        observed_round = -1
        while _now() < deadline:
            _sleep(round_interval / 2)
            statuses = read_statuses(directory)
            seen_round = max(
                (record.get("round", 0) for record in statuses.values()), default=0
            )
            if seen_round > max_seen_round or len(statuses) > max_seen_nodes:
                last_progress = _now()
            max_seen_round = max(max_seen_round, seen_round)
            max_seen_nodes = max(max_seen_nodes, len(statuses))
            converged = feed_collector(collector, statuses, shape_obj, n_nodes)
            # One health observation per *swarm* round (not per poll), and
            # none before the children start reporting — process startup is
            # not a health signal, and the alert windows keep their
            # rounds-denominated meaning.
            if statuses and seen_round > observed_round:
                observed_round = seen_round
                monitor.observe(None, seen_round)
            if progress is not None:
                progress(poll_round, statuses, monitor.verdict())
            poll_round += 1
            dead = [
                (index, child)
                for index, child in enumerate(children)
                if child.poll() not in (None, 0)
            ]
            if dead:
                index, child = dead[0]
                stderr = (child.stderr.read() if child.stderr else b"").decode(
                    "utf-8", "replace"
                )
                raise SimulationError(
                    f"swarm node {index} died (exit {child.returncode}): "
                    f"{stderr.strip()[-500:]}"
                )
            if converged:
                break
            if all(record.get("done") for record in statuses.values()) and (
                len(statuses) == n_nodes
            ):
                break  # every child exhausted max_rounds without converging
            if _now() - last_progress > CHILD_STALL_TIMEOUT:
                raise SimulationError(
                    f"swarm made no progress for {CHILD_STALL_TIMEOUT:.0f}s "
                    f"({len(statuses)}/{n_nodes} nodes reporting, "
                    f"round {max_seen_round})"
                )
    finally:
        stop_flag.touch()
        grace = _now() + max(2.0, 4 * round_interval)
        for child in children:
            while child.poll() is None and _now() < grace:
                _sleep(0.05)
            if child.poll() is None:
                child.terminate()
            try:
                child.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                child.kill()
                child.wait()
            if child.stderr:
                child.stderr.close()

    statuses = read_statuses(directory)
    # Refresh the gauges from the final statuses, but keep the loop's
    # convergence verdict: the overlay may churn an edge during the last
    # wind-down rounds, and "the swarm reached the target shape" is the
    # claim being made. (A final snapshot can still upgrade it.)
    converged = feed_collector(collector, statuses, shape_obj, n_nodes) or converged
    rtt_summary = {
        layer: {
            "count": histogram.count,
            "mean_seconds": histogram.mean(),
            "p95_seconds": histogram.percentile(0.95),
            "max_seconds": histogram.vmax,
        }
        for (name, layer), histogram in sorted(collector.histograms.items())
        if name == "gossip_rtt" and histogram.count
    }
    report = SwarmReport(
        n_nodes=n_nodes,
        shape=shape,
        seed=seed,
        round_interval=round_interval,
        converged=converged,
        rounds=max(
            (record.get("round", 0) for record in statuses.values()), default=0
        ),
        verdict=monitor.verdict(),
        alerts=[alert.to_dict() for alert in monitor.alerts],
        nodes=statuses,
        status_dir=str(directory),
        flow=collector.flow.summary() if collector.flow is not None else None,
        rtt=rtt_summary,
    )
    return report, collector


def merge_node_events(status_dir: str) -> List[Any]:
    """One merged event stream from every ``node-*.jsonl`` in a swarm dir.

    Events are stable-sorted by round (ties keep node order), so the
    merged stream reads like one chronological log of the whole swarm.
    Consumed by ``repro report <swarm-dir>`` and the CI artifact upload.
    """
    from repro.obs.export import read_jsonl

    events: List[Any] = []
    for path in sorted(pathlib.Path(status_dir).glob("node-*.jsonl")):
        events.extend(read_jsonl(str(path)))
    events.sort(key=lambda event: event.round)
    return events


def main(argv: Optional[List[str]] = None) -> int:
    """Module entry point: ``--node`` selects the child role."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "--node":
        return _swarm_node(argv[1:])
    raise SystemExit(
        "repro.runtime.swarm is the child entry point; launch swarms with "
        "'repro swarm' or repro.runtime.swarm.run_swarm()"
    )


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
