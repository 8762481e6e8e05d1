"""Performance subsystem: digests and the elementary cells.

Two modules, both *simulation-side* — the determinism linter forbids
wall-clock reads anywhere under ``perf/`` (DET003); timing is the
repository benchmark's job (``python3 -m bench``, docs/performance.md):

- :mod:`repro.perf.digest` — overlay fingerprints, the behavioural
  contract every equivalence test compares.
- :mod:`repro.perf.workloads` — the fixed elementary-stack matrices whose
  digests are committed (``tests/scale/elementary_cells.json``) and the one
  ``run_cell`` that drives any in-process runner kind to convergence.
"""

from repro.perf.digest import overlay_digest, result_digest

__all__ = ["overlay_digest", "result_digest"]
