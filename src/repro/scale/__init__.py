"""``repro.scale`` — the 10k-node tier: columnar views + a sharded engine.

ROADMAP item 1. Three pieces, each pinned by digest identity:

- :mod:`repro.scale.columnar` — an array-backed, observably *identical*
  twin of :class:`~repro.gossip.views.PartialView` (interned node-id
  slots, fixed-width ``array`` columns for ids and ages), which the
  sharded engine picks for ``RunnerConfig(backend="columnar")``;
- :mod:`repro.scale.engine` — a barrier-synchronous sharded engine that
  partitions nodes across workers with per-node RNG streams derived by
  the ``spawn_seeds`` SHA-256 splitter, exchanging cross-shard
  descriptors only at round barriers, so the realized overlay is a pure
  function of ``(workload, seed)`` — independent of shard count and of
  process placement;
- :mod:`repro.scale.bench` — the ``repro bench --scale {ci,1k,10k}``
  tiers (the ``scale`` rows of :mod:`repro.perf.workloads`, driven by the
  same ``run_cell`` as the gossip matrix) recording wall time, peak RSS,
  and per-round throughput into ``BENCH_gossip.json``, gated on
  serial-object / serial-columnar / sharded-columnar digests being
  byte-identical per cell.
"""

from repro.scale.columnar import ColumnarView, NodeInterner
from repro.scale.engine import ShardedEngine, ShardPlan

__all__ = [
    "ColumnarView",
    "NodeInterner",
    "ShardedEngine",
    "ShardPlan",
]
