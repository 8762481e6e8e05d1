"""The scale-tier timing harness — ``repro bench --scale {ci,1k,10k}``.

The wall-clock side of :mod:`repro.scale` (this module and
:mod:`repro.perf.bench` are the only perf modules allowed to read the
clock; DET003 pins the rest to simulated time). Each tier cell runs three
configurations of the *same* deterministic computation:

- ``serial-object`` — one shard, boxed-descriptor views (the reference);
- ``serial-columnar`` — one shard, array-backed columnar views;
- ``sharded-columnar`` — the tier's shard count, columnar views, on the
  process pool where the tier says so.

The hard gate: all three must produce byte-identical overlay digests. A
mismatch raises :class:`ScaleDigestError` — a bench that cannot prove
digest identity has no business writing a trajectory.

Per configuration the report records wall time, rounds executed, message
and byte counts, per-round throughput (node-rounds per second), and the
process's peak RSS high-water after the run. The 1k tier additionally runs
a tracemalloc probe of the columnar cell and records its peak together
with a 2x ceiling — the budget tests/scale/test_memory.py holds future
changes to.

Results merge into ``BENCH_gossip.json`` under a ``scale_tiers`` section
keyed by tier through :func:`repro.perf.bench.write_bench_section`, the
file's one owner, which keeps every other section intact.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.perf.bench import write_bench_section
from repro.perf.workloads import CellResult, Workload, run_cell, workload_matrix
from repro.sim.rng import spawn_seeds

#: Schema version of the ``scale_tiers`` trajectory section.
SCALE_SCHEMA = 1

#: Per-tier sharded configuration: (n_shards, execution mode). The ci and
#: 1k tiers exercise the real process pool; the 10k tier shards inline —
#: at that message volume pickling costs more than the parallelism buys,
#: and the digest is the same either way (that equivalence is the point).
_TIER_SHARDS: Dict[str, Tuple[int, str]] = {
    "ci": (2, "mp"),
    "1k": (4, "mp"),
    "10k": (4, "inline"),
}


class ScaleDigestError(RuntimeError):
    """The serial/columnar/sharded digests of a cell diverged."""


def _peak_rss_kb() -> Optional[int]:
    """The process's peak RSS high-water, in KiB (None where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _run_config(
    workload: Workload,
    seed: int,
    label: str,
    backend: str,
    n_shards: int,
    mode: str,
) -> Tuple[CellResult, Dict]:
    config = workload.config(
        seed, kind="sharded", backend=backend, n_shards=n_shards, mode=mode
    )
    start = time.perf_counter()
    result = run_cell(config, workload.max_rounds)
    wall = time.perf_counter() - start
    node_rounds = workload.n_nodes * result.executed
    entry = {
        "label": label,
        "backend": backend,
        "n_shards": n_shards,
        "mode": result.mode,
        "wall_s": round(wall, 4),
        "rounds": result.executed,
        "rounds_to_converge": result.rounds_to_converge,
        "messages": result.messages,
        "bytes": result.bytes,
        "node_rounds_per_s": round(node_rounds / wall) if wall > 0 else None,
        "peak_rss_kb": _peak_rss_kb(),
    }
    return result, entry


def _memory_probe(workload: Workload, seed: int) -> Dict:
    """Tracemalloc peak of the columnar serial cell, plus its 2x budget.

    Tracemalloc measures Python-level allocations only (not the RSS of
    interned ints or arena overhead), but unlike ru_maxrss it is not a
    process-lifetime high-water — so it regresses cleanly run over run.
    """
    import tracemalloc

    tracemalloc.start()
    try:
        run_cell(
            workload.config(seed, kind="sharded", backend="columnar"),
            workload.max_rounds,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "workload": workload.name,
        "n_nodes": workload.n_nodes,
        "backend": "columnar",
        "tracemalloc_peak_bytes": peak,
        "tracemalloc_budget_bytes": 2 * peak,
    }


def run_scale_bench(
    tier: str = "ci",
    master_seed: int = 1,
    n_shards: Optional[int] = None,
    memory_probe: Optional[bool] = None,
) -> Dict:
    """Run the tier's matrix through the three gated configurations.

    Raises :class:`ScaleDigestError` on any digest divergence. Returns the
    tier section (see module docstring) ready to merge into the trajectory.
    """
    tier_shards, tier_mode = _TIER_SHARDS.get(tier, _TIER_SHARDS["ci"])
    if n_shards is not None:
        tier_shards = n_shards
    if memory_probe is None:
        memory_probe = tier == "1k"
    cells: List[Dict] = []
    total_wall = 0.0
    probe: Optional[Dict] = None
    for workload in workload_matrix(tier, suite="scale"):
        seed = spawn_seeds(master_seed, 1, "scale-bench", workload.name)[0]
        configs = (
            ("serial-object", "object", 1, "inline"),
            ("serial-columnar", "columnar", 1, "inline"),
            ("sharded-columnar", "columnar", tier_shards, tier_mode),
        )
        entries: List[Dict] = []
        digests: List[str] = []
        for label, backend, shards, mode in configs:
            result, entry = _run_config(workload, seed, label, backend, shards, mode)
            entries.append(entry)
            digests.append(result.digest)
            total_wall += entry["wall_s"]
        if len(set(digests)) != 1:
            detail = ", ".join(
                f"{entry['label']}={digest[:16]}"
                for entry, digest in zip(entries, digests)
            )
            raise ScaleDigestError(
                f"digest divergence on {workload.name} (seed {seed}): {detail}"
            )
        cells.append(
            {
                "workload": workload.name,
                "shape": workload.shape,
                "n_nodes": workload.n_nodes,
                "max_rounds": workload.max_rounds,
                "seed": seed,
                "digest": digests[0],
                "digests_identical": True,
                "configs": entries,
            }
        )
        if memory_probe and probe is None:
            probe = _memory_probe(workload, seed)
    section = {
        "schema": SCALE_SCHEMA,
        "tier": tier,
        "master_seed": master_seed,
        "cells": cells,
        "wall_time_s": round(total_wall, 4),
    }
    if probe is not None:
        section["memory"] = probe
    return section


def write_scale_bench(
    section: Dict, json_path: str = "BENCH_gossip.json"
) -> str:
    """Merge a tier section into the trajectory under ``scale_tiers``."""
    return write_bench_section(json_path, ("scale_tiers", section["tier"]), section)


def format_scale_bench(section: Dict) -> str:
    """Render a tier section as the aligned table the CLI prints."""
    from repro.metrics.report import render_table

    headers = (
        "workload",
        "nodes",
        "config",
        "wall s",
        "rounds",
        "node-rounds/s",
        "peak RSS MB",
        "digest",
    )
    rows = []
    for cell in section["cells"]:
        for entry in cell["configs"]:
            rss = entry["peak_rss_kb"]
            rows.append(
                (
                    cell["workload"],
                    cell["n_nodes"],
                    f"{entry['label']} ({entry['mode']} x{entry['n_shards']})",
                    f"{entry['wall_s']:.2f}",
                    entry["rounds"],
                    entry["node_rounds_per_s"],
                    "n/a" if rss is None else f"{rss / 1024:.0f}",
                    cell["digest"][:12],
                )
            )
    title = (
        f"repro bench — scale tier {section['tier']} "
        f"(master_seed={section['master_seed']}, digests identical)"
    )
    return render_table(headers, rows, title=title)
