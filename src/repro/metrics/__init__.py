"""Measurement utilities: statistics over seeds, bandwidth series, tables.

The paper averages every measure over 25 runs and computes 90% confidence
intervals; :mod:`~repro.metrics.stats` provides exactly that aggregation.
:mod:`~repro.metrics.bandwidth` extracts the Fig. 4 byte series from a
deployment's transport, and :mod:`~repro.metrics.report` renders the ASCII
tables the benchmark harness prints (fault-recovery hygiene is measured in
:mod:`repro.obs.recovery`).
:class:`~repro.metrics.registry.MetricsRegistry` is the facade over all of
them — the single aggregation path the CLI's ``report`` and ``obs``
commands consume.
"""

from repro.metrics.bandwidth import per_node_series, total_split
from repro.metrics.registry import MetricsRegistry
from repro.metrics.report import render_series, render_table
from repro.metrics.stats import Stats, mean, std, summarize

__all__ = [
    "MetricsRegistry",
    "Stats",
    "mean",
    "per_node_series",
    "render_series",
    "render_table",
    "std",
    "summarize",
    "total_split",
]
