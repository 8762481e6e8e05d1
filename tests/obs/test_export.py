"""Exporters: JSONL streams and Prometheus."""

from __future__ import annotations

import json

import pytest

from repro.obs.collector import Collector
from repro.obs.export import (
    read_jsonl,
    to_jsonl,
    to_prometheus,
    write_jsonl,
    write_prometheus,
)
from repro.obs.trace import TraceEvent


def _collector_with_traffic() -> Collector:
    collector = Collector(gauge_every=0)
    collector.emit("deploy", nodes=24)
    collector.emit("node_crash", node=3)
    collector.count("exchanges", 10, layer="uo1")
    collector.count("exchanges", 4)
    collector.gauge("population", 24)
    collector.spans.begin("round")
    collector.spans.end("round")
    return collector


class TestJsonl:
    def test_round_trip_through_file(self, tmp_path):
        collector = _collector_with_traffic()
        path = tmp_path / "events.jsonl"
        assert write_jsonl(str(path), collector) == 2
        events = read_jsonl(str(path))
        assert [event.kind for event in events] == ["deploy", "node_crash"]
        assert events[0].details == {"nodes": 24}

    def test_lines_are_namespaced(self):
        lines = to_jsonl(_collector_with_traffic()).splitlines()
        first = json.loads(lines[0])
        assert set(first) == {"round", "kind", "details"}

    def test_rejects_flat_layout_line(self, tmp_path):
        from repro.errors import ReproError

        path = tmp_path / "flat.jsonl"
        path.write_text(
            json.dumps({"round": 0, "kind": "deploy", "details": {}}) + "\n"
            + json.dumps({"round": 4, "kind": "node_crash", "node": 9}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ReproError, match=r"flat\.jsonl:2: not an event record"):
            read_jsonl(str(path))

    def test_accepts_bare_event_iterables(self):
        events = [TraceEvent(round=1, kind="heal", details={})]
        assert json.loads(to_jsonl(events))["kind"] == "heal"

    def test_empty_stream_is_empty_string(self):
        assert to_jsonl([]) == ""


class TestPrometheus:
    def test_counters_gauges_spans_exposed(self, tmp_path):
        collector = _collector_with_traffic()
        text = to_prometheus(collector)
        assert '# TYPE repro_exchanges_total counter' in text
        assert 'repro_exchanges_total{layer="uo1"} 10' in text
        assert "repro_exchanges_total 4" in text  # global: no labels
        assert "# TYPE repro_population gauge" in text
        assert 'repro_span_count{span="round"} 1' in text
        assert "repro_events_total 2" in text
        path = tmp_path / "snapshot.prom"
        write_prometheus(str(path), collector)
        assert path.read_text(encoding="utf-8") == text

    def test_metric_names_are_sanitized(self):
        collector = Collector(gauge_every=0)
        collector.count("odd-name.metric")
        assert "repro_odd_name_metric_total" in to_prometheus(collector)

    def test_hostile_layer_label_round_trips_escaped(self):
        """A label value full of exposition-format metacharacters must stay
        inside its quotes: backslashes doubled, quotes and newlines escaped,
        and the snapshot must stay one-sample-per-line."""
        hostile = 'evil"}\n\\{injected="1'
        collector = Collector(gauge_every=0)
        collector.count("exchanges", 3, layer=hostile)
        text = to_prometheus(collector)
        (sample,) = [
            line for line in text.splitlines() if line.startswith("repro_exchanges")
        ]
        assert sample == (
            'repro_exchanges_total{layer="evil\\"}\\n\\\\{injected=\\"1"} 3'
        )
        # Unescaping the quoted value recovers the original layer name.
        start = sample.index('layer="') + len('layer="')
        end = sample.rindex('"')
        recovered = (
            sample[start:end]
            .replace("\\n", "\n")
            .replace('\\"', '"')
            .replace("\\\\", "\\")
        )
        assert recovered == hostile


class TestReadErrors:
    def test_corrupt_json_line_raises_coded_error_with_location(self, tmp_path):
        from repro.errors import ReproError

        path = tmp_path / "broken.jsonl"
        path.write_text(
            '{"round": 1, "kind": "deploy", "details": {}}\n{oops\n',
            encoding="utf-8",
        )
        with pytest.raises(ReproError) as excinfo:
            read_jsonl(str(path))
        message = str(excinfo.value)
        assert f"{path}:2" in message
        assert "JSONL" in message

    def test_non_event_json_raises_coded_error(self, tmp_path):
        from repro.errors import ReproError

        path = tmp_path / "wrong.jsonl"
        path.write_text('["a", "list", "not", "an", "event"]\n', encoding="utf-8")
        with pytest.raises(ReproError) as excinfo:
            read_jsonl(str(path))
        assert f"{path}:1" in str(excinfo.value)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_jsonl(str(tmp_path / "absent.jsonl"))
