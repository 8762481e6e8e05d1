"""Tests for multi-seed statistics."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.experiments.stats import (
    Stats,
    confidence_half_width,
    mean,
    std,
    summarize,
)


class TestMoments:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ConfigurationError):
            mean([])

    def test_std_known_value(self):
        assert std([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.138, abs=1e-3)

    def test_std_singleton_is_zero(self):
        assert std([5]) == 0.0
        assert std([]) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_std_nonnegative(self, samples):
        assert std(samples) >= 0.0


class TestConfidence:
    def test_zero_for_small_samples(self):
        assert confidence_half_width([3.0]) == 0.0

    def test_matches_t_interval(self):
        # n=25, std=1 -> half width = t(0.95, 24) / 5 ≈ 0.342
        samples = [0.0] * 25
        samples = [i % 2 for i in range(25)]  # mean .48, std ~.51
        half = confidence_half_width(samples)
        assert 0.1 < half < 0.3

    def test_shrinks_with_samples(self):
        narrow = confidence_half_width([1, 2] * 20)
        wide = confidence_half_width([1, 2] * 2)
        assert narrow < wide


class TestSummarize:
    def test_basic(self):
        stats = summarize([4, 6, 8])
        assert stats.mean == 6.0
        assert stats.n == 3
        assert stats.failures == 0

    def test_none_counts_as_failure(self):
        stats = summarize([4, None, 8, None])
        assert stats.n == 2
        assert stats.failures == 2
        assert stats.mean == 6.0

    def test_all_failures(self):
        stats = summarize([None, None])
        assert stats.n == 0
        assert stats.failures == 2
        assert math.isnan(stats.mean)

    def test_str_format(self):
        assert "±" in str(summarize([1.0, 2.0]))
        assert "n/a" == str(summarize([None]))
        assert "failed" in str(summarize([1.0, None]))

    def test_stats_frozen(self):
        stats = Stats(mean=1.0, std=0.0, ci90=0.0, n=1)
        with pytest.raises(AttributeError):
            stats.mean = 2.0  # type: ignore[misc]


def test_interval_does_not_depend_on_scipy():
    """The committed ± columns must print the same with or without scipy."""
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from repro.experiments.stats import summarize\n"
        "print(str(summarize([3, 4])))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "3.5 ±3.2"
