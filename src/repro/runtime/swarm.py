"""The swarm harness: N real UDP node processes under one supervisor.

``run_swarm`` launches ``n_nodes`` local processes, each running one
:class:`~repro.runtime.net.NetRunner` (``python -m repro.runtime.swarm
--node ...``), wires node 0 as the bootstrap rendezvous, and supervises
the run through *status files*: every child atomically rewrites
``status_dir/node-<i>.json`` after each round with its overlay
neighbourhood and wire-level traffic counters. One
:class:`SwarmObserver` reads that directory for every caller (the
supervisor, ``repro watch --swarm``, ``repro report <dir>``): it
assembles the swarm-wide adjacency and feeds the same
:class:`~repro.obs.collector.Collector` + :class:`~repro.obs.health.HealthMonitor`
pair the simulator uses, so a live swarm gets the exact dashboard, alert
rules, and Prometheus exporter of simulated runs. Convergence is declared
by the shape's own :meth:`~repro.shapes.base.Shape.converged` test, after
which a ``STOP`` flag file winds the children down cleanly.

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
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.runtime.net import _now, _sleep
from repro.shapes import make_shape

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

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

    status: Dict[str, Any] = {}

    def publish() -> None:
        status.update(
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
                "done": False,
            }
        )
        _write_status(status_path, status)

    def on_round(_runner: Any, round_index: int) -> bool:
        if stop_flag.exists():
            # Winding down: peers are exiting, and a request to one that has
            # closed times out and drops a live edge. The status of the last
            # round that ended before the flag stands; only `done` changes.
            return True
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
        publish()
        stream.flush(collector)
        return False

    runner.on_round = on_round
    collector.emit("node_up", node=args.node_index)
    try:
        runner.run(args.max_rounds)
        if not status:
            runner.endpoint.call(publish)  # stopped before its first round ended
        status["done"] = True
        _write_status(status_path, status)
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


def merge_telemetry(
    collector: Any, statuses: Dict[int, Dict[str, Any]]
) -> None:
    """Merge per-node flow state and wire histograms into the collector.

    Each node publishes its own :class:`~repro.obs.flow.FlowTracer` dump
    and per-layer RTT histograms; :meth:`SwarmObserver.poll` rebuilds the
    swarm-wide view every time (statuses are cumulative, so
    rebuild-from-scratch is the merge that cannot double-count).
    """
    from repro.obs.collector import Histogram
    from repro.obs.flow import merge_flow_states

    flow_states = [record.get("flow") for record in statuses.values()]
    if any(flow_states):
        try:
            collector.flow = merge_flow_states(flow_states)
        except (KeyError, TypeError, ValueError):
            pass  # a malformed dump degrades to no flow report, not a crash

    dumps: Dict[str, List[Any]] = {}
    for record in statuses.values():
        for layer, dump in (record.get("rtt") or {}).items():
            dumps.setdefault(layer, []).append(dump)
    for layer, layer_dumps in dumps.items():
        histogram = Histogram.merged(layer_dumps)
        if histogram is not None:
            collector.histograms[("gossip_rtt", layer)] = histogram


class SwarmObserver:
    """The one reader of a swarm status directory.

    The supervisor (:func:`run_swarm`), ``repro watch --swarm`` and
    ``repro report <dir>`` all observe a swarm through this class. It owns
    a :class:`~repro.obs.collector.Collector` and a
    :class:`~repro.obs.health.HealthMonitor` (also ``collector.health``).
    Each :meth:`poll` reads the statuses, refreshes the gauges and the
    merged flow / RTT telemetry, and observes the monitor once per new
    swarm round. ``converged`` is sticky: the swarm reached the shape even
    if an edge churns later. ``finished`` holds once all ``n_nodes``
    report and all are done. A poll raises
    :class:`~repro.errors.SimulationError` after
    :data:`CHILD_STALL_TIMEOUT` seconds without a new round or node.
    """

    def __init__(
        self,
        directory: Any,
        shape: str,
        n_nodes: int,
        seed: int = 1,
        round_interval: float = 0.2,
    ):
        from repro.obs.collector import Collector
        from repro.obs.health import HealthMonitor

        self.directory = pathlib.Path(directory)
        self.shape = shape
        self.n_nodes = n_nodes
        self.seed = seed
        self.round_interval = round_interval
        self._shape = make_shape(shape)
        self.collector = Collector(gauge_every=1)
        self.monitor = HealthMonitor(self.collector, expected_layers=SWARM_LAYERS)
        self.collector.health = self.monitor
        self.statuses: Dict[int, Dict[str, Any]] = {}
        #: The highest round any node has reported.
        self.round = 0
        self.converged = False
        self.finished = False
        self._observed_round = -1
        self._last_progress = _now()

    @classmethod
    def attach(cls, directory: Any, wait: float = 0.0) -> "SwarmObserver":
        """The observer of the swarm that ``directory/swarm.json`` describes,
        waiting up to ``wait`` seconds for a just-launched swarm to write it."""
        meta_path = pathlib.Path(directory) / "swarm.json"
        deadline = _now() + wait
        while not meta_path.exists():
            if _now() >= deadline:
                raise SimulationError(f"no swarm metadata at {meta_path}")
            _sleep(0.1)
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            fields = [meta[key] for key in ("shape", "n_nodes", "seed", "round_interval")]
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"unreadable swarm metadata at {meta_path}: {exc!r}") from exc
        return cls(directory, *fields)

    def poll(self) -> Dict[int, Dict[str, Any]]:
        """Read the statuses and refresh everything derived from them.

        The ``layers_converged`` gauge is scaled to the swarm's two-layer
        stack by the fraction of target edges realized, so
        :class:`~repro.obs.health.StalledConvergence` sees monotone
        progress while the overlay forms and only trips on a genuine stall.
        """
        statuses = read_statuses(self.directory)
        seen_round = max(
            (record.get("round", 0) for record in statuses.values()), default=0
        )
        if seen_round > self.round or len(statuses) > len(self.statuses):
            self._last_progress = _now()
        self.round = max(self.round, seen_round)
        self.statuses = statuses

        shape, n_nodes, collector = self._shape, self.n_nodes, self.collector
        adjacency = swarm_adjacency(statuses)
        total_edges = sum(
            len(shape.target_neighbors(rank, n_nodes)) for rank in range(n_nodes)
        )
        missing = len(shape.missing_edges(adjacency, n_nodes)) if total_edges else 0
        satisfied = (total_edges - missing) / total_edges if total_edges else 1.0
        collector.gauge("layers_converged", SWARM_LAYERS * satisfied)
        degrees = [len(record.get("neighbors", ())) for record in statuses.values()]
        if degrees:
            collector.gauge(
                "out_degree_mean", sum(degrees) / len(degrees), layer="overlay"
            )
            collector.gauge("out_degree_max", float(max(degrees)), layer="overlay")
        collector.gauge("swarm_nodes_reporting", float(len(statuses)))
        merge_telemetry(collector, statuses)
        if len(statuses) == n_nodes and shape.converged(adjacency, n_nodes):
            self.converged = True

        # One health observation per *swarm* round (not per poll), and none
        # before the children start reporting: process startup is not a
        # health signal, and the alert windows keep their rounds-denominated
        # meaning.
        if statuses and seen_round > self._observed_round:
            self._observed_round = seen_round
            self.monitor.observe(None, seen_round)
        self.finished = len(statuses) == n_nodes and all(
            record.get("done") for record in statuses.values()
        )
        if self.converged or self.finished:
            return statuses
        if _now() - self._last_progress > CHILD_STALL_TIMEOUT:
            raise SimulationError(
                f"swarm made no progress for {CHILD_STALL_TIMEOUT:.0f}s "
                f"({len(statuses)}/{n_nodes} nodes reporting, "
                f"round {self.round})"
            )
        return statuses

    def follow(self) -> Iterator[Dict[int, Dict[str, Any]]]:
        """Poll every half round, yielding each poll's statuses, until the
        swarm converged or finished (a stall raises from :meth:`poll`)."""
        while True:
            yield self.poll()
            if self.converged or self.finished:
                return
            _sleep(self.round_interval / 2)

    def report(self) -> SwarmReport:
        """The run's record as of the latest poll."""
        flow = self.collector.flow
        return SwarmReport(
            n_nodes=self.n_nodes,
            shape=self.shape,
            seed=self.seed,
            round_interval=self.round_interval,
            converged=self.converged,
            rounds=self.round,
            verdict=self.monitor.verdict(),
            alerts=[alert.to_dict() for alert in self.monitor.alerts],
            nodes=self.statuses,
            status_dir=str(self.directory),
            flow=flow.summary() if flow is not None else None,
            rtt={
                layer: {
                    "count": histogram.count,
                    "mean_seconds": histogram.mean(),
                    "p95_seconds": histogram.percentile(0.95),
                    "max_seconds": histogram.vmax,
                }
                for (name, layer), histogram in sorted(self.collector.histograms.items())
                if name == "gossip_rtt" and histogram.count
            },
        )


def swarm_view(
    report: SwarmReport, collector: Any, events: List[Any]
) -> "MetricsRegistry":
    """The one printed view of a swarm (``repro swarm``, ``repro report <dir>``).

    Built from a :class:`SwarmObserver`'s final poll (its :meth:`report
    <SwarmObserver.report>` and collector) and the merged node events, as a
    :class:`~repro.obs.registry.MetricsRegistry`: the verdict, each node's
    neighbourhood and wire bytes, the swarm's wire totals, the information
    flow, gossip RTT, the alert history and the event summary.
    """
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    registry.add_section(
        "swarm",
        ("shape", "nodes", "converged", "rounds", "verdict"),
        [
            (
                report.shape,
                f"{len(report.nodes)}/{report.n_nodes}",
                "yes" if report.converged else "NO",
                report.rounds,
                report.verdict,
            )
        ],
    )
    registry.add_section(
        "nodes",
        ("node", "round", "neighbors", "B out", "B in"),
        [
            (
                node,
                record.get("round", 0),
                " ".join(str(peer) for peer in record.get("neighbors", ())),
                (record.get("wire") or {}).get("bytes_sent", 0),
                (record.get("wire") or {}).get("bytes_received", 0),
            )
            for node, record in sorted(report.nodes.items())
        ],
    )
    bandwidth = report.bandwidth()
    registry.add_section("wire totals", tuple(bandwidth), [tuple(bandwidth.values())])
    if collector.flow is not None:
        registry.add_flow(collector.flow)
    registry.add_section(
        "gossip rtt (wire spans)",
        ("layer", "count", "mean ms", "p95 ms", "max ms"),
        [
            (
                layer,
                stats["count"],
                f"{stats['mean_seconds'] * 1000:.2f}",
                f"{stats['p95_seconds'] * 1000:.2f}",
                f"{stats['max_seconds'] * 1000:.2f}",
            )
            for layer, stats in sorted(report.rtt.items())
        ],
    )
    registry.add_health(collector.health)
    registry.add_events(events)
    return registry


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

    The supervisor is a :class:`SwarmObserver` of the status directory
    (the same reader ``repro watch --swarm`` and ``repro report <dir>``
    use) plus a check that no child died. ``progress``, when given, is
    invoked after every poll with ``(poll_round, statuses, verdict)``. The
    observer's collector is returned alongside the report so callers can
    export the telemetry (Prometheus snapshot, JSONL stream).
    """
    if n_nodes < 2:
        raise SimulationError(f"a swarm needs >= 2 nodes, got {n_nodes}")
    from repro.runtime.api import RunnerConfig

    # Every child builds this record; build it first, so a bad knob fails
    # before swarm.json is written or any child is spawned.
    RunnerConfig(kind="net", n_nodes=n_nodes, round_interval=round_interval, max_rounds=max_rounds)
    directory = pathlib.Path(status_dir) if status_dir else None
    if directory is None:
        import tempfile

        directory = pathlib.Path(tempfile.mkdtemp(prefix="repro-swarm-"))
    directory.mkdir(parents=True, exist_ok=True)
    observer = SwarmObserver(directory, shape, n_nodes, seed, round_interval)
    stop_flag = directory / STOP_FLAG
    # A reused directory: the last run's flag would stop this one, its
    # statuses end it at the first poll with their verdict, and its event
    # streams join this run's.
    for pattern in (STOP_FLAG, "node-*.json", "node-*.jsonl"):
        for stale in directory.glob(pattern):
            stale.unlink()
    # Swarm metadata: lets `repro watch --swarm DIR` and `repro report DIR`
    # attach without being told the shape or size.
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
        for poll_round, statuses in enumerate(observer.follow()):
            if progress is not None:
                progress(poll_round, statuses, observer.monitor.verdict())
            for index, child in enumerate(children):
                if child.poll() not in (None, 0):
                    stderr = (child.stderr.read() if child.stderr else b"").decode(
                        "utf-8", "replace"
                    )
                    raise SimulationError(
                        f"swarm node {index} died (exit {child.returncode}): "
                        f"{stderr.strip()[-500:]}"
                    )
            if _now() >= deadline:
                break
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

    # One last poll of the wound-down statuses; `converged` stays sticky.
    observer.poll()
    return observer.report(), observer.collector


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
