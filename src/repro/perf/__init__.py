"""Performance subsystem: hot-path caches, digests, and the bench harness.

Three concerns live here (docs/performance.md has the full story):

- :mod:`repro.perf.cache` — the memoized distance cache the select-style
  overlay protocols (Vicinity, T-Man) rank through; ranking-function
  evaluation is the dominant cost of gossip topology construction.
- :mod:`repro.perf.workloads` — the fixed, deterministic workload matrices
  (node counts × shapes; the gossip suite and the scale tiers) and the one
  ``run_cell`` that drives any in-process runner kind to convergence, plus
  :mod:`repro.perf.digest` to fingerprint outcomes for regression checks.
  These modules are *simulation-side*: the determinism linter forbids
  wall-clock reads in them (DET003).
- :mod:`repro.perf.bench` — the timing harness behind ``repro bench``:
  runs the matrix (in parallel across seeds), records wall time, rounds to
  convergence and message/byte counts, and owns the machine-readable
  ``BENCH_gossip.json`` trajectory on disk (``write_bench_section``).
"""

from repro.perf.cache import DistanceCache
from repro.perf.digest import overlay_digest, result_digest

#: Lazy re-exports (PEP 562). The overlay protocols import
#: :class:`DistanceCache` from this package while the bench/workload modules
#: import those same protocols — eager re-exports here would close an import
#: cycle (gossip → perf → bench → harness → core → gossip).
_LAZY = {
    "BenchReport": "repro.perf.bench",
    "format_bench": "repro.perf.bench",
    "run_bench": "repro.perf.bench",
    "write_bench": "repro.perf.bench",
    "Workload": "repro.perf.workloads",
    "CellResult": "repro.perf.workloads",
    "run_cell": "repro.perf.workloads",
    "workload_matrix": "repro.perf.workloads",
}

__all__ = [
    "BenchReport",
    "CellResult",
    "DistanceCache",
    "Workload",
    "format_bench",
    "overlay_digest",
    "result_digest",
    "run_bench",
    "run_cell",
    "workload_matrix",
    "write_bench",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(__all__)
