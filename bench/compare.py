"""``python3 -m bench compare A.json B.json``: did B get worse than A?

A and B are reports written with ``--out`` by runs of the same seed and
sizes, so their cells pair up by cell seed. A metric with per-cell samples
is judged on the paired ratios B/A (seed-to-seed variation, which dwarfs
every bound, cancels); ``peak_rss_mb`` has one value per run. One row per
workload and end-to-end metric:

- ``worse`` / ``better``: the median ratio moved by more than the bound;
- ``same``: it did not;
- ``unresolved``: the quartiles of the ratios are further apart than the
  bound, and the cells do not all agree on the direction.

``rounds`` and ``traffic_bytes`` repeat exactly for a seed, so for them any
increase is ``worse``. Exits 1 if any row is ``worse``, 2 on bad input.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List

from bench.metrics import END_TO_END, EXACT_FOR_A_SEED


def _workloads(path: str) -> Dict[str, Dict[str, Any]]:
    with open(path) as handle:
        report = json.load(handle)
    return report["workloads"] if "workloads" in report else {report["workload"]: report}


def _judge(a: Dict[str, Any], b: Dict[str, Any], name: str, better: str, bound: float):
    """(A summary, B summary, median ratio, ratio spread, bound used, verdict)."""
    if name in a["samples"]:
        a_values, b_values = a["samples"][name], b["samples"][name]
    else:
        a_values, b_values = [a["end_to_end"][name]["value"]], [b["end_to_end"][name]["value"]]
    if name in EXACT_FOR_A_SEED:  # counts, both lower-is-better: compare the totals
        ratio = sum(b_values) / sum(a_values)
        verdict = "same" if ratio == 1.0 else "worse" if ratio > 1.0 else "better"
        return _summary(a_values), _summary(b_values), ratio, 0.0, 0.0, verdict
    ratios = [after / before for before, after in zip(a_values, b_values)]
    ratio = statistics.median(ratios)
    spread = 0.0
    if len(ratios) > 1:
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        spread = q3 - q1
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    one_way = all(r > 1.0 for r in ratios) or all(r < 1.0 for r in ratios)
    if spread > bound and not one_way:
        verdict = "unresolved"
    elif worsening > bound:
        verdict = "worse"
    elif worsening < -bound:
        verdict = "better"
    else:
        verdict = "same"
    return _summary(a_values), _summary(b_values), ratio, spread, bound, verdict


def _summary(values: List[float]) -> str:
    """``median [q1 q3]``, or the single value of a once-per-run metric."""
    if len(values) == 1:
        return f"{values[0]:.5g}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.5g} [{q1:.5g} {q3:.5g}]"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = _workloads(argv[0]), _workloads(argv[1])
    verdicts: List[str] = []
    print(f"{'workload':14s} {'metric':18s} {'A median [q1 q3]':>34s} "
          f"{'B median [q1 q3]':>34s} {'B/A':>8s} {'spread':>8s} {'bound':>6s}  verdict")
    for workload in before:
        if workload not in after:
            continue
        a, b = before[workload], after[workload]
        for key in ("seed", "size", "cells", "max_rounds"):
            if a[key] != b[key]:
                print(f"bench compare: {workload}: {key} differs ({a[key]} vs {b[key]}); "
                      "the reports' cells do not pair up", file=sys.stderr)
                return 2
        verdict = "same" if b["failed"] == 0 else "worse"
        verdicts.append(verdict)
        print(f"{workload:14s} {'failed_fraction':18s} {a['failed_fraction']:34.4g} "
              f"{b['failed_fraction']:34.4g} {'':8s} {'':8s} {0:6.2f}  {verdict}")
        if not (a["correct"] and b["correct"]):
            continue
        for name, _, better, bound in END_TO_END:
            a_summary, b_summary, ratio, spread, used, verdict = _judge(
                a, b, name, better, bound
            )
            verdicts.append(verdict)
            print(f"{workload:14s} {name:18s} {a_summary:>34s} {b_summary:>34s} "
                  f"{ratio:8.4f} {spread:8.4f} {used:6.2f}  {verdict}")
    if not verdicts:
        print("bench compare: the reports share no workload", file=sys.stderr)
        return 2
    return 1 if "worse" in verdicts else 0
