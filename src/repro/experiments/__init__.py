"""The paper's evaluation (§4) and our ablations (see DESIGN.md §4).

- :mod:`~repro.experiments.topologies` — the complex real-world-like
  assemblies of experiment (i): star-of-cliques (MongoDB), ring-of-rings,
  grid-of-rings, line-of-stars, an IoT composite;
- :mod:`~repro.experiments.catalogue` — every experiment, figure and
  ablation as one row of ``EXPERIMENTS``, with one runner, one result type
  and one formatter; scales are environment-controlled
  (``REPRO_SCALE=ci|full``, the full scale matching the paper's 25 600
  nodes / 25 seeds);
- :mod:`~repro.experiments.stats` and :mod:`~repro.experiments.plot` — the
  multi-seed statistics and ASCII charts the rows report with.
"""
