"""Command line of the benchmark.

    python3 -m bench --workload NAME [--seed 7] [--seconds 10] [--trace 0|1]
    python3 -m bench [--out report.json]          # all five, one process each
    python3 -m bench compare A.json B.json

A single-workload run ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). The exit code is non-zero when any
cell failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

from bench import SRC


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0, help="length of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="which metrics the last line carries: 0 end-to-end, 1 per-layer")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, two cells")
    parser.add_argument("--max-rounds", type=int, default=120)
    parser.add_argument("--out", type=Path, help="write the full report (with spans) here")
    return parser


def _print_table(report: Dict[str, Any]) -> None:
    print(f"== {report['workload']} seed={report['seed']} size={report['size']} "
          f"cells={report['cells']} failed={report['failed']}/{report['attempted']}")
    for failure in report["failures"]:
        print(f"FAILED cell seed={failure['seed']} traced={failure['traced']}:")
        for why in failure["why"]:
            print("   ", why.rstrip().replace("\n", "\n    "))
    for section in ("end_to_end", "per_layer"):
        for name, metric in report[section].items():
            line = f"{name:36s} {metric['value']:>16.6g} {metric['unit']}"
            spread = report.get("quartiles", {}).get(name)
            if spread:
                line += (f"   cells n={spread['n']} median {spread['median']:.6g} "
                         f"q1 {spread['q1']:.6g} q3 {spread['q3']:.6g}")
            print(line)


def _run_one(args) -> int:
    from bench.runner import run_workload
    from bench.workloads import BY_NAME

    report = run_workload(
        BY_NAME[args.workload], args.seed, args.seconds, args.smoke, args.max_rounds
    )
    if args.out:
        args.out.write_text(json.dumps(report))
    _print_table(report)
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report[section],
    }))
    return 0 if report["correct"] else 1


def _cross_check(reports: Dict[str, Dict[str, Any]]) -> List[str]:
    """``traced_ror`` must build exactly what ``assembly_ror`` builds."""
    plain, traced = reports.get("assembly_ror"), reports.get("traced_ror")
    if not (plain and traced and plain["correct"] and traced["correct"]):
        return []
    return [
        f"traced_ror {key} differ from assembly_ror's"
        for key in ("digests", "rounds", "traffic_bytes")
        if plain["samples"][key] != traced["samples"][key]
    ]


def _run_all(args) -> int:
    """Each workload in a fresh process of its own, one after the other."""
    from bench.workloads import WORKLOADS

    reports: Dict[str, Dict[str, Any]] = {}
    where = args.out.resolve().parent if args.out else Path.cwd()
    with tempfile.TemporaryDirectory(dir=where, prefix=".bench_") as scratch:
        for workload in WORKLOADS:
            path = Path(scratch) / f"{workload.name}.json"
            command = [
                sys.executable, "-m", "bench", "--workload", workload.name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--max-rounds", str(args.max_rounds), "--out", str(path),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, cwd=SRC.parent
            )
            print(done.stdout.rsplit("\n", 2)[0])  # the table, not the driver line
            if not path.exists():
                print(f"{workload.name}: no report (exit code {done.returncode})")
                return 1
            reports[workload.name] = json.loads(path.read_text())
    cross = _cross_check(reports)
    for problem in cross:
        print("FAILED cross-check:", problem)
    plain, traced = reports["assembly_ror"], reports["traced_ror"]
    if plain["correct"] and traced["correct"]:
        overhead = (traced["end_to_end"]["cpu_s"]["value"]
                    / plain["end_to_end"]["cpu_s"]["value"] - 1.0)
        traced["per_layer"]["obs.overhead_fraction"] = {"value": overhead, "unit": "ratio"}
        print(f"{'obs.overhead_fraction':36s} {overhead:>16.6g} ratio"
              "   (traced_ror cpu_s / assembly_ror cpu_s - 1)")
    correct = not cross and all(report["correct"] for report in reports.values())
    if args.out:
        args.out.write_text(json.dumps({
            "seed": args.seed, "smoke": args.smoke, "correct": correct,
            "cross_check_failures": cross, "workloads": reports,
        }))
    print("benchmark", "correct" if correct else "FAILED")
    return 0 if correct else 1


def main(argv: List[str]) -> int:
    if argv and argv[0] == "compare":
        from bench.compare import main as compare_main

        return compare_main(argv[1:])
    args = _parser().parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench: the program is not here: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    from bench.workloads import BY_NAME

    if args.workload not in BY_NAME:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(BY_NAME)}",
              file=sys.stderr)
        return 2
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
