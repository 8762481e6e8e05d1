"""CI gate: a fresh ``BENCH_gossip.json`` must not move the committed contract.

``repro bench`` rewrites the trajectory in the checkout. Wall times, RSS and
throughput are allowed to move between machines; overlay digests, message
and byte counts and rounds-to-converge are not — they are pure functions of
``(workload, seed)``. This script compares those fields of the rewritten
file with ``git show HEAD:BENCH_gossip.json`` and exits 1 on any difference.
Cells present on one side only (a tier the committed file never recorded)
are skipped; comparing nothing at all is a failure.
"""

import json
import subprocess
import sys

PATH = "BENCH_gossip.json"
CONTRACT = {"digest", "digests", "messages", "bytes", "rounds", "rounds_to_converge"}


def contract(node, path=()):
    """``(path, value)`` of every contract field; cells are keyed by name."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in CONTRACT:
                yield path + (key,), value
            else:
                yield from contract(value, path + (key,))
    elif isinstance(node, list):
        for index, item in enumerate(node):
            label = None
            if isinstance(item, dict):
                label = item.get("name") or item.get("workload") or item.get("label")
            yield from contract(item, path + (label or index,))


def main() -> int:
    committed = json.loads(
        subprocess.run(
            ["git", "show", f"HEAD:{PATH}"], check=True, capture_output=True, text=True
        ).stdout
    )
    with open(PATH, encoding="utf-8") as handle:
        fresh = dict(contract(json.load(handle)))
    pinned = dict(contract(committed))
    shared = sorted(set(fresh) & set(pinned), key=str)
    moved = [path for path in shared if fresh[path] != pinned[path]]
    for path in moved:
        where = "/".join(str(part) for part in path)
        print(f"MOVED {where}: committed {pinned[path]!r} -> fresh {fresh[path]!r}")
    if not shared:
        print(f"no contract field of {PATH} could be compared")
        return 1
    print(f"bench contract: {len(shared) - len(moved)}/{len(shared)} fields identical")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
