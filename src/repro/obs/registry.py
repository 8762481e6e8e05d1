"""MetricsRegistry — the one aggregation path behind the CLI reports.

Feeders turn a convergence report, a deployment's bandwidth split, a
telemetry :class:`~repro.obs.collector.Collector`, or a JSONL event stream
into named table *sections*, and one renderer
(:func:`~repro.obs.export.render_table`) prints them all. Every view of
``repro report`` — a converged topology (:meth:`MetricsRegistry.for_deployment`),
a JSONL stream (:meth:`MetricsRegistry.from_events`), a swarm status
directory — differs only in which feeders it calls; the aggregation and
formatting are shared, so the views can never drift apart.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.export import render_table

#: One section: (title, headers, rows of primitives).
Section = Tuple[str, Tuple[str, ...], List[Tuple[Any, ...]]]


class MetricsRegistry:
    """Named table sections with a single renderer and plain-data export."""

    def __init__(self):
        self._sections: List[Section] = []

    # -- generic access --------------------------------------------------------

    def add_section(
        self,
        title: str,
        headers: Sequence[str],
        rows: Iterable[Sequence[Any]],
    ) -> None:
        self._sections.append(
            (title, tuple(headers), [tuple(row) for row in rows])
        )

    def section(self, title: str) -> Optional[Section]:
        for candidate in self._sections:
            if candidate[0] == title:
                return candidate
        return None

    def render(self) -> str:
        """Every section as an aligned ASCII table, blank-line separated."""
        blocks = [
            render_table(headers, rows, title=title)
            for title, headers, rows in self._sections
            if rows
        ]
        return "\n\n".join(blocks)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data export (JSON-friendly) of every section."""
        return {
            title: {"headers": list(headers), "rows": [list(row) for row in rows]}
            for title, headers, rows in self._sections
        }

    # -- feeders ----------------------------------------------------------------

    def add_convergence(self, report) -> None:
        """Per-layer rounds-to-converge from a deployment's run report."""
        rows = [
            (layer, "n/a" if rounds is None else rounds)
            for layer, rounds in sorted(report.rounds.items())
        ]
        rows.append(("(executed)", report.executed))
        self.add_section("convergence (rounds)", ("layer", "rounds"), rows)

    def add_bandwidth(self, deployment, rounds: int) -> None:
        """The Fig. 4 baseline/overhead split, per node per round."""
        if not rounds:
            return
        split = deployment.bandwidth_split(rounds)
        population = max(1, deployment.network.alive_count())
        rows = [
            (label, f"{sum(series) / rounds / population:.0f}")
            for label, series in sorted(split.items())
        ]
        self.add_section(
            "bandwidth (bytes/node/round)", ("series", "bytes"), rows
        )

    def add_collector(self, collector) -> None:
        """Counters, gauges, spans, and the event summary of one collector."""
        self.add_section(
            "counters",
            ("counter", "layer", "value"),
            [
                (name, layer or "-", value)
                for (name, layer), value in sorted(collector.counters.items())
            ],
        )
        self.add_section(
            "gauges",
            ("gauge", "layer", "value"),
            [
                (name, layer or "-", f"{value:g}")
                for (name, layer), value in sorted(collector.gauges.items())
            ],
        )
        self.add_section(
            "spans",
            ("span", "count", "total s", "mean s"),
            [
                (
                    name,
                    collector.spans.counts[name],
                    f"{collector.spans.totals[name]:.4f}",
                    f"{collector.spans.mean(name):.6f}",
                )
                for name in collector.spans.names()
            ],
        )
        self.add_events(collector.events)
        if collector.unknown_kinds:
            self.add_section(
                "unknown event kinds",
                ("kind", "count"),
                sorted(collector.unknown_kinds.items()),
            )
        flow = getattr(collector, "flow", None)
        if flow is not None:
            self.add_flow(flow)
        health = getattr(collector, "health", None)
        if health is not None:
            self.add_health(health)

    def add_flow(self, flow) -> None:
        """Causal propagation tracing: per-layer latency and critical path.

        ``flow`` is a :class:`~repro.obs.flow.FlowTracer`; layers with no
        tagged deliveries are omitted.
        """
        rows = []
        for layer, data in sorted(flow.summary().items()):
            latency = data["latency"] or {}
            path = data["critical_path"]
            rows.append(
                (
                    layer,
                    data["deliveries"],
                    data["flow_edges"],
                    data["known_pairs"],
                    "-" if not latency else f"{latency['mean']:.1f}",
                    "-" if not latency else latency["p95"],
                    "-"
                    if path is None
                    else "->".join(str(n) for n in path["path"])
                    + f" @r{path['closed_round']}",
                )
            )
        self.add_section(
            "information flow",
            (
                "layer",
                "deliveries",
                "edges",
                "pairs",
                "lat mean",
                "lat p95",
                "critical path",
            ),
            rows,
        )

    def add_health(self, monitor) -> None:
        """Alert history of a :class:`~repro.obs.health.HealthMonitor`."""
        summary = monitor.summary()
        rows = [
            (
                alert["severity"],
                alert["rule"],
                alert["round_fired"],
                "-" if alert["round_cleared"] is None else alert["round_cleared"],
            )
            for alert in summary["alerts"]
        ]
        rows.append(("(verdict)", summary["verdict"], "", ""))
        self.add_section(
            "health alerts", ("severity", "rule", "fired", "cleared"), rows
        )

    def add_profile(self, collector) -> None:
        """The span self-time profile (``repro report --profile``)."""
        from repro.obs.watch import profile_rows

        rows = profile_rows(collector)
        grand_self = sum(row[3] for row in rows) or 1.0
        self.add_section(
            "span profile (self-time)",
            ("span", "count", "total s", "self s", "self %"),
            [
                (
                    name,
                    count,
                    f"{total:.4f}",
                    f"{self_time:.4f}",
                    f"{100.0 * self_time / grand_self:.1f}%",
                )
                for name, count, total, self_time in rows
            ],
        )

    def add_events(self, events: Iterable[Any]) -> None:
        """Event summary (count and round range per kind) from any stream.

        Accepts :class:`~repro.obs.trace.TraceEvent` objects — live from a
        collector or re-read from a JSONL export — so post-mortem analysis
        of a file goes through the same table as a live run.
        """
        per_kind: Dict[str, List[int]] = {}
        for event in events:
            per_kind.setdefault(event.kind, []).append(event.round)
        self.add_section(
            "events",
            ("kind", "count", "first round", "last round"),
            [
                (kind, len(rounds), min(rounds), max(rounds))
                for kind, rounds in sorted(per_kind.items())
            ],
        )

    # -- constructors ------------------------------------------------------------

    @classmethod
    def for_deployment(
        cls, deployment, report, collector=None
    ) -> "MetricsRegistry":
        """The full ``repro report`` view: convergence, bandwidth, telemetry."""
        registry = cls()
        registry.add_convergence(report)
        registry.add_bandwidth(deployment, report.executed)
        if collector is not None:
            registry.add_collector(collector)
        return registry

    @classmethod
    def from_events(cls, events: Iterable[Any]) -> "MetricsRegistry":
        """The ``repro report`` post-mortem view over a JSONL stream."""
        registry = cls()
        registry.add_events(events)
        return registry
