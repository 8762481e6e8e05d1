"""The live terminal view and the span-profile table.

``repro watch`` drives an instrumented run round by round and re-renders a
compact dashboard as the overlay converges (``--once`` renders a single
snapshot after the run instead). The dashboard is a pure function of the
collector (plus the optional health monitor and flow tracer), so the same
renderer serves the live loop, the snapshot mode, and the tests.

:func:`profile_rows` turns the engine's span totals into a *self-time*
table: the engine's spans nest (``round`` ⊃ ``steps`` ⊃ ``layer:<name>``,
``round`` ⊃ ``observe``), so a layer's cost is subtracted from its parents
before sorting — the table answers "where did the wall-clock actually go",
which raw totals (where ``round`` always wins) cannot.

Rendering reads no wall clock and no RNG (DET003 applies here): simulation
time *is* the refresh clock, so the view stays deterministic per seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.export import render_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.heal.engine import RemediationEngine
    from repro.obs.collector import Collector
    from repro.obs.health import HealthMonitor

#: Per-layer counters shown in the dashboard's layer table.
_LAYER_COUNTERS = ("exchanges", "descriptors_sent", "descriptors_received")


def _fmt(value: Optional[float], spec: str = "g") -> str:
    return "-" if value is None else format(value, spec)


def render_dashboard(
    collector: "Collector",
    health: Optional["HealthMonitor"] = None,
    round_index: Optional[int] = None,
    title: str = "repro watch",
    heal: Optional["RemediationEngine"] = None,
    nodes: Optional[Dict[int, Dict[str, Any]]] = None,
) -> str:
    """One frame of the live view: population, layers, flow, alerts.

    With ``heal`` (a remediation engine), a remediation panel follows the
    alerts: the loop's verdict and, per active incident, its attempts so
    far and the next scheduled retry round.

    With ``nodes`` (swarm status records keyed by node index, as read by
    :func:`repro.runtime.swarm.read_statuses`), a per-node panel follows
    the flow table: each live node's round, gossip RTT (mean/p95 over its
    own histograms), wire bytes in/out, reply drops and Lamport clock —
    the ``repro watch --swarm`` view.
    """
    out: List[str] = []
    header = title
    if round_index is not None:
        header += f" — round {round_index}"
    out.append(header)
    out.append("=" * len(header))

    alive = collector.gauge_value("population_alive")
    total = collector.gauge_value("population")
    converged = collector.gauge_value("layers_converged")
    status = [
        f"population: {_fmt(alive)}/{_fmt(total)}",
        f"layers converged: {_fmt(converged)}",
        f"events: {len(collector.events)}",
    ]
    if health is not None:
        status.append(f"health: {health.verdict()}")
    out.append("  ".join(status))
    out.append("")

    layers = collector.layers()
    if layers:
        headers = ["layer", "exchanges", "sent", "received", "deg mean", "deg max"]
        rows = []
        for layer in layers:
            rows.append(
                [layer]
                + [
                    collector.counter(name, layer=layer)
                    for name in _LAYER_COUNTERS
                ]
                + [
                    _fmt(collector.gauge_value("out_degree_mean", layer=layer), ".2f"),
                    _fmt(collector.gauge_value("out_degree_max", layer=layer)),
                ]
            )
        out.append(render_table(headers, rows, title="layers"))
        out.append("")

    flow = collector.flow
    if flow is not None and flow.layers():
        headers = ["layer", "deliveries", "lat p50", "lat p95", "critical path"]
        rows = []
        for layer in flow.layers():
            stats = flow.latency_stats(layer)
            path = flow.critical_path(layer)
            rows.append(
                [
                    layer,
                    0 if stats is None else stats["count"],
                    "-" if stats is None else stats["p50"],
                    "-" if stats is None else stats["p95"],
                    "-" if path is None else _render_path(path),
                ]
            )
        out.append(render_table(headers, rows, title="information flow"))
        out.append("")

    if nodes:
        headers = [
            "node", "round", "peers", "rtt ms", "p95 ms",
            "B out", "B in", "drops", "lamport",
        ]
        rows = []
        for node in sorted(nodes):
            record = nodes[node]
            wire = record.get("wire") or {}
            mean_ms, p95_ms = _node_rtt(record)
            rows.append(
                [
                    node,
                    record.get("round", 0),
                    record.get("peers_known", "-"),
                    _fmt(mean_ms, ".2f"),
                    _fmt(p95_ms, ".2f"),
                    wire.get("bytes_sent", 0),
                    wire.get("bytes_received", 0),
                    sum(((record.get("peer") or {}).get("drops") or {}).values()),
                    record.get("lamport", 0),
                ]
            )
        out.append(render_table(headers, rows, title="swarm nodes"))
        out.append("")

    if health is not None:
        active = health.active_alerts()
        if active:
            headers = ["severity", "rule", "since round", "evidence"]
            rows = [
                [
                    alert.severity,
                    alert.rule,
                    alert.round_fired,
                    _render_evidence(alert.evidence),
                ]
                for alert in active
            ]
            out.append(render_table(headers, rows, title="active alerts"))
        else:
            out.append("active alerts: none")
        out.append("")

    if heal is not None:
        active = heal.active_incidents()
        status = [
            f"remediation: {heal.verdict()}",
            f"actions run: {heal.actions_run}",
        ]
        out.append("  ".join(status))
        if active:
            headers = ["rule", "severity", "attempts", "next retry"]
            rows = [
                [
                    incident.rule,
                    incident.severity,
                    incident.attempts,
                    f"r{incident.next_round}",
                ]
                for incident in active
            ]
            out.append(render_table(headers, rows, title="active remediations"))
        out.append("")

    return "\n".join(out).rstrip() + "\n"


def _node_rtt(record: Dict[str, Any]) -> Tuple[Optional[float], Optional[float]]:
    """(mean, p95) gossip RTT in milliseconds across one node's layers."""
    from repro.obs.collector import Histogram

    merged = Histogram.merged((record.get("rtt") or {}).values())
    if merged is None or not merged.count:
        return None, None
    return merged.mean() * 1000.0, merged.percentile(0.95) * 1000.0


def _render_path(path) -> str:
    chain = "->".join(str(node) for node in path.path)
    return f"{chain} (closed r{path.closed_round}, {path.hops} hops)"


def _render_evidence(evidence: Dict[str, Any]) -> str:
    parts = []
    for key in sorted(evidence):
        value = evidence[key]
        if isinstance(value, float):
            value = f"{value:.3f}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


# -- span profiling ------------------------------------------------------------

#: The engine's span nesting: child span → enclosing span. The sharded
#: engine's BSP phases (``shard:request`` / ``shard:barrier`` /
#: ``shard:respond`` / ``shard:absorb``) nest directly under ``round``.
_SPAN_PARENTS = {"steps": "round", "observe": "round", "act": "round"}


def _parent_of(name: str) -> Optional[str]:
    if name.startswith("layer:"):
        return "steps"
    if name.startswith("shard:"):
        return "round"
    return _SPAN_PARENTS.get(name)


def profile_rows(collector: "Collector") -> List[Tuple[str, int, float, float]]:
    """``(span, count, total_seconds, self_seconds)`` sorted by self-time.

    Self-time is a span's total minus the totals of its direct children in
    the engine's nesting; spans outside the known hierarchy (custom spans)
    count as their own self-time.
    """
    totals = collector.spans.totals
    children_total: Dict[str, float] = {}
    for name, total in totals.items():
        parent = _parent_of(name)
        if parent is not None and parent in totals:
            children_total[parent] = children_total.get(parent, 0.0) + total
    rows = [
        (
            name,
            collector.spans.counts.get(name, 0),
            total,
            max(0.0, total - children_total.get(name, 0.0)),
        )
        for name, total in totals.items()
    ]
    rows.sort(key=lambda row: (-row[3], row[0]))
    return rows
