"""The repository benchmark: DSL text -> converged overlay, costed per layer.

``python3 -m bench --workload NAME --seed N`` runs one workload in this
process and prints every metric by name and unit; ``python3 -m bench``
runs all five, each in a process of its own; ``python3 -m bench compare
A.json B.json`` judges two reports against the bounds in ``BENCHMARK.json``.
See ``bench/README.md``.

The program under test is the ``repro`` package of *this checkout*: its
``src`` directory is put first on ``sys.path`` so an installed copy can
never be measured by mistake.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if (SRC / "repro").is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
