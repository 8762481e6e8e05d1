"""Performance subsystem: hot-path caches, digests, and the elementary cells.

Three modules, all *simulation-side* — the determinism linter forbids
wall-clock reads anywhere under ``perf/`` (DET003); timing is the
repository benchmark's job (``python3 -m bench``, docs/performance.md):

- :mod:`repro.perf.cache` — the memoized distance cache the select-style
  overlay protocols (Vicinity, T-Man) rank through; ranking-function
  evaluation is the dominant cost of gossip topology construction.
- :mod:`repro.perf.digest` — overlay fingerprints, the behavioural
  contract every equivalence test compares.
- :mod:`repro.perf.workloads` — the fixed elementary-stack matrices whose
  digests are committed (``tests/scale/elementary_cells.json``) and the one
  ``run_cell`` that drives any in-process runner kind to convergence.
  Imported by module path: the overlay protocols import
  :class:`DistanceCache` from this package while ``workloads`` imports
  those same protocols.
"""

from repro.perf.cache import DistanceCache
from repro.perf.digest import overlay_digest, result_digest

__all__ = ["DistanceCache", "overlay_digest", "result_digest"]
