"""Bucketed distributions: the Histogram type, collector storage, exposition."""

from __future__ import annotations

import math

import pytest

from repro.obs.collector import RTT_BUCKETS, Collector, Histogram
from repro.obs.export import to_prometheus


class TestHistogram:
    def test_bucketing_is_cumulative_le(self):
        histogram = Histogram(bounds=(0.01, 0.1, 1.0))
        for value in (0.005, 0.01, 0.05, 0.5, 5.0):
            histogram.record(value)
        # cumulative() yields (le_label, count<=le) with +Inf last
        assert histogram.cumulative() == [
            ("0.01", 2),  # 0.005 and the boundary value 0.01
            ("0.1", 3),
            ("1", 4),  # %g labels: 1.0 renders as "1"
            ("+Inf", 5),
        ]
        assert histogram.count == 5

    def test_mean_and_max(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 3.5):
            histogram.record(value)
        assert histogram.mean() == pytest.approx(5.5 / 3)
        assert histogram.vmax == 3.5

    def test_percentile_returns_bucket_upper_bound(self):
        histogram = Histogram(bounds=(0.01, 0.1, 1.0))
        for _ in range(99):
            histogram.record(0.005)
        histogram.record(0.5)
        assert histogram.percentile(0.50) == 0.01
        assert histogram.percentile(1.0) == 1.0

    def test_overflow_percentile_falls_back_to_observed_max(self):
        histogram = Histogram(bounds=(1.0,))
        histogram.record(9.0)
        assert histogram.percentile(0.95) == 9.0

    def test_empty_histogram(self):
        histogram = Histogram()
        assert histogram.count == 0
        assert histogram.mean() == 0.0
        assert histogram.percentile(0.95) == 0.0

    def test_bounds_must_strictly_increase(self):
        for bad in ((), (1.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ValueError):
                Histogram(bounds=bad)

    def test_dict_round_trip(self):
        histogram = Histogram(bounds=(0.5, 2.0))
        for value in (0.1, 1.0, 10.0):
            histogram.record(value)
        clone = Histogram.from_dict(histogram.to_dict())
        assert clone.to_dict() == histogram.to_dict()
        assert clone.cumulative() == histogram.cumulative()

    def test_merge_dict_adds_counts(self):
        a, b = Histogram(bounds=(1.0, 2.0)), Histogram(bounds=(1.0, 2.0))
        a.record(0.5)
        b.record(1.5)
        b.record(9.0)
        a.merge_dict(b.to_dict())
        assert a.count == 3
        assert a.vmax == 9.0
        assert a.mean() == pytest.approx(11.0 / 3)

    def test_merge_dict_rejects_mismatched_bounds(self):
        a = Histogram(bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            a.merge_dict(Histogram(bounds=(1.0, 3.0)).to_dict())

    def test_merged_skips_unusable_dumps(self):
        a, b = Histogram(bounds=(1.0, 2.0)), Histogram(bounds=(1.0, 2.0))
        a.record(0.5)
        b.record(1.5)
        odd = Histogram(bounds=(1.0, 3.0)).to_dict()
        merged = Histogram.merged([7, a.to_dict(), odd, b.to_dict()])
        assert merged.count == 2
        assert merged.vmax == 1.5

    def test_merged_of_nothing_usable_is_none(self):
        assert Histogram.merged([]) is None
        assert Histogram.merged(["garbage", {"counts": "x"}]) is None


class TestCollectorHistograms:
    def test_histogram_method_upserts_per_layer(self):
        collector = Collector(gauge_every=0)
        collector.histogram("gossip_rtt", 0.004, layer="overlay")
        collector.histogram("gossip_rtt", 0.008, layer="overlay")
        collector.histogram("gossip_rtt", 0.004, layer="peer_sampling")
        overlay = collector.histograms.get(("gossip_rtt", "overlay"))
        assert overlay is not None and overlay.count == 2
        assert collector.histograms.get(("gossip_rtt", "peer_sampling")).count == 1
        assert collector.histograms.get(("gossip_rtt", "nope")) is None

    def test_every_metric_buckets_on_rtt_bounds(self):
        collector = Collector(gauge_every=0)
        collector.histogram("gossip_rtt", 0.004)
        collector.histogram("custom_metric", 1.0)
        assert collector.histograms[("gossip_rtt", "")].bounds == tuple(RTT_BUCKETS)
        assert collector.histograms[("custom_metric", "")].bounds == tuple(RTT_BUCKETS)

    def test_snapshot_includes_histograms(self):
        collector = Collector(gauge_every=0)
        collector.histogram("gossip_rtt", 0.004, layer="overlay")
        snapshot = collector.snapshot()
        entries = snapshot["histograms"]
        assert len(entries) == 1
        assert entries[0]["name"] == "gossip_rtt"
        assert entries[0]["layer"] == "overlay"
        assert entries[0]["count"] == 1


class TestPrometheusHistogramExposition:
    def test_exposition_format(self):
        collector = Collector(gauge_every=0)
        collector.histogram("gossip_rtt", 0.004, layer="overlay")
        collector.histogram("gossip_rtt", 0.2, layer="overlay")
        text = to_prometheus(collector)
        assert "# TYPE repro_gossip_rtt histogram" in text
        assert 'repro_gossip_rtt_bucket{layer="overlay",le="0.005"} 1' in text
        assert 'repro_gossip_rtt_bucket{layer="overlay",le="+Inf"} 2' in text
        assert 'repro_gossip_rtt_count{layer="overlay"} 2' in text
        sum_line = next(
            line for line in text.splitlines() if "_sum" in line and "rtt" in line
        )
        assert math.isclose(float(sum_line.rsplit(" ", 1)[1]), 0.204)

    def test_bucket_counts_are_cumulative_and_monotone(self):
        collector = Collector(gauge_every=0)
        for value in (0.001, 0.003, 0.02, 0.4, 3.0):
            collector.histogram("gossip_rtt", value)
        lines = [
            line
            for line in to_prometheus(collector).splitlines()
            if line.startswith("repro_gossip_rtt_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 5  # +Inf bucket sees everything

    def test_unlabeled_histogram_has_no_layer_label(self):
        collector = Collector(gauge_every=0)
        collector.histogram("gossip_rtt", 0.004)
        text = to_prometheus(collector)
        assert 'repro_gossip_rtt_bucket{le="0.005"} 1' in text
