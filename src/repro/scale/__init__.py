"""``repro.scale`` — the scale tier: a barrier-synchronous sharded engine.

:mod:`repro.scale.engine` partitions nodes across workers with per-node RNG
streams derived by the ``spawn_seeds`` SHA-256 splitter, exchanging
cross-shard descriptors only at round barriers, so the realized overlay is a
pure function of ``(workload, seed)`` — independent of shard count and of
process placement. Every shard node runs the round engine's own
``PeerSampling`` and ``Vicinity`` objects, one exchange half per phase.

The gate is ``tests/scale/test_digests.py``: the ``scale`` rows of
:mod:`repro.perf.workloads` must reproduce their committed digests, and at
1 024 nodes serial and sharded (4 shards, worker processes) must produce the
same one. Timing is the repository benchmark's ``scale_ring`` workload
(``python3 -m bench``).
"""

from repro.scale.engine import ShardedEngine, ShardPlan

__all__ = [
    "ShardedEngine",
    "ShardPlan",
]
