"""Exporters: JSONL event streams, Prometheus-style snapshots, ASCII tables.

Two complementary shapes of the same telemetry, plus the one table renderer
every report, dashboard and experiment table goes through:

- **JSONL** — the event stream, one JSON object per line in the namespaced
  :meth:`~repro.obs.trace.TraceEvent.to_dict` layout. Line-oriented so
  streams from multiple runs concatenate; :func:`read_jsonl` rejects a
  line without a ``details`` map, naming its line number.
- **Prometheus text** — a point-in-time snapshot of the collector's
  counters, gauges, and span totals in the exposition format, so the
  output can be diffed, scraped, or pasted into dashboards without any
  client library.
- **Tables** — :func:`render_table`, aligned plain text that diffs cleanly.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Iterable, List, Sequence, Union

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.collector import Collector
    from repro.obs.trace import TraceEvent

EventSource = Union["Collector", Iterable["TraceEvent"]]


def _events_of(source: EventSource):
    events = getattr(source, "events", None)
    return events if events is not None else source


def to_jsonl(source: EventSource) -> str:
    """The event stream as JSONL (one namespaced event per line)."""
    lines = [
        json.dumps(event.to_dict(), sort_keys=True) for event in _events_of(source)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(path: str, source: EventSource) -> int:
    """Write the event stream to ``path``; return the number of events."""
    text = to_jsonl(source)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text.count("\n")


def read_jsonl(path: str) -> List["TraceEvent"]:
    """Parse a JSONL event stream in the namespaced layout.

    Raises :class:`~repro.errors.ReproError` — with the offending line
    number — on malformed JSON or on records missing the event fields, so
    callers (the CLI in particular) can fail with a clear message instead
    of a traceback.
    """
    from repro.obs.trace import TraceEvent

    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"{path}:{line_number}: not valid JSON ({exc.msg}) — "
                    "is this a JSONL event stream?"
                ) from exc
            try:
                events.append(TraceEvent.from_dict(record))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ReproError(
                    f"{path}:{line_number}: not an event record "
                    f"(missing/invalid field: {exc})"
                ) from exc
    return events


# -- Prometheus text exposition -----------------------------------------------


#: Anything outside the Prometheus metric-name alphabet collapses to "_".
_METRIC_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(prefix: str, name: str) -> str:
    return _METRIC_NAME_SANITIZER.sub("_", f"{prefix}_{name}")


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition format.

    Backslash first (so the other escapes are not double-escaped), then
    quotes and newlines — a hostile layer label like ``evil"}\\n`` must not
    break out of the quoted value or split the sample line.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels(layer: str) -> str:
    return f'{{layer="{_escape_label_value(layer)}"}}' if layer else ""


def to_prometheus(collector: "Collector", prefix: str = "repro") -> str:
    """A Prometheus-style text snapshot of the collector's aggregates.

    Counters become ``<prefix>_<name>_total``, gauges ``<prefix>_<name>``,
    histograms ``<prefix>_<name>_bucket{le=...}`` / ``_sum`` / ``_count``,
    spans ``<prefix>_span_seconds_total`` / ``<prefix>_span_count`` with a
    ``span`` label. Layer labels are attached where present.
    """
    lines: List[str] = []
    by_counter: dict = {}
    for (name, layer), value in sorted(collector.counters.items()):
        by_counter.setdefault(name, []).append((layer, value))
    for name, series in by_counter.items():
        metric = _metric_name(prefix, name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        for layer, value in series:
            lines.append(f"{metric}{_labels(layer)} {value}")
    by_gauge: dict = {}
    for (name, layer), value in sorted(collector.gauges.items()):
        by_gauge.setdefault(name, []).append((layer, value))
    for name, series in by_gauge.items():
        metric = _metric_name(prefix, name)
        lines.append(f"# TYPE {metric} gauge")
        for layer, value in series:
            lines.append(f"{metric}{_labels(layer)} {value:g}")
    by_histogram: dict = {}
    for (name, layer), histogram in sorted(
        getattr(collector, "histograms", {}).items()
    ):
        by_histogram.setdefault(name, []).append((layer, histogram))
    for name, series in by_histogram.items():
        metric = _metric_name(prefix, name)
        lines.append(f"# TYPE {metric} histogram")
        for layer, histogram in series:
            layer_label = (
                f'layer="{_escape_label_value(layer)}",' if layer else ""
            )
            for le_label, cumulative in histogram.cumulative():
                lines.append(
                    f'{metric}_bucket{{{layer_label}le="{le_label}"}} '
                    f"{cumulative}"
                )
            lines.append(f"{metric}_sum{_labels(layer)} {histogram.total:.6f}")
            lines.append(f"{metric}_count{_labels(layer)} {histogram.count}")
    span_names = collector.spans.names()
    if span_names:
        total_metric = _metric_name(prefix, "span_seconds") + "_total"
        count_metric = _metric_name(prefix, "span_count")
        lines.append(f"# TYPE {total_metric} counter")
        for name in span_names:
            lines.append(
                f'{total_metric}{{span="{_escape_label_value(name)}"}} '
                f"{collector.spans.totals[name]:.6f}"
            )
        lines.append(f"# TYPE {count_metric} counter")
        for name in span_names:
            lines.append(
                f'{count_metric}{{span="{_escape_label_value(name)}"}} '
                f"{collector.spans.counts[name]}"
            )
    events_metric = _metric_name(prefix, "events") + "_total"
    lines.append(f"# TYPE {events_metric} counter")
    lines.append(f"{events_metric} {len(collector.events)}")
    return "\n".join(lines) + "\n"


def write_prometheus(path: str, collector: "Collector", prefix: str = "repro") -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_prometheus(collector, prefix=prefix))


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned ASCII table."""
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[index]) for index, cell in enumerate(cells))

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(line(["-" * width for width in widths]))
    out.extend(line(row) for row in materialized)
    return "\n".join(out)
