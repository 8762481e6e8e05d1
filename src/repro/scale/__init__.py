"""``repro.scale`` — the scale tier: columnar views + a sharded engine.

Two pieces, each pinned by digest identity:

- :mod:`repro.scale.columnar` — an array-backed, observably *identical*
  twin of :class:`~repro.gossip.views.PartialView` (interned node-id
  slots, fixed-width ``array`` columns for ids and ages), which the
  sharded engine picks for ``RunnerConfig(backend="columnar")``;
- :mod:`repro.scale.engine` — a barrier-synchronous sharded engine that
  partitions nodes across workers with per-node RNG streams derived by
  the ``spawn_seeds`` SHA-256 splitter, exchanging cross-shard
  descriptors only at round barriers, so the realized overlay is a pure
  function of ``(workload, seed)`` — independent of shard count and of
  process placement.

The gate is ``tests/scale/test_digests.py``: the ``scale`` rows of
:mod:`repro.perf.workloads` must reproduce their committed digests, and at
1 024 nodes serial-object, serial-columnar and sharded-columnar (4 shards,
process pool) must all produce the same one. Timing is the repository
benchmark's ``scale_ring`` workload (``python3 -m bench``).
"""

from repro.scale.columnar import ColumnarView, NodeInterner
from repro.scale.engine import ShardedEngine, ShardPlan

__all__ = [
    "ColumnarView",
    "NodeInterner",
    "ShardedEngine",
    "ShardPlan",
]
