"""The speed probe: how fast is this core right now?

Measured on the 2-vCPU sandbox this benchmark was built on: the CPU time of
*identical* work wanders between 1.0x and 2.3x over minutes (neighbours on
the host; the guest sees no steal). Runs of 16 identical cells differed by
13-17 % (quartile distance over median) from one run to the next, and no
statistic of a single run -- minimum, low quantile, median over 128 cells --
got below 8 %. Dividing by the CPU time of a fixed kernel sampled between
the cells of the same run brought the same runs to 4 %.

So every end-to-end CPU time is reported in *reference-speed seconds*:
measured CPU seconds divided by the run's speed factor, which is the mean
kernel time over :data:`REFERENCE_S`. The kernel is plain interpreter work
(slotted objects, dict upserts, a keyed sort, a JSON round trip) that calls
nothing of the program under test, so a change to the program cannot move
it. Per-layer times stay as measured; ``bench.speed_factor`` is printed
beside them.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from typing import List

#: Kernel CPU seconds at factor 1.0 (the sandbox above on a typical minute).
REFERENCE_S = 0.018


class _Entry:
    __slots__ = ("key", "age", "coord")

    def __init__(self, key: int, age: int, coord: tuple):
        self.key = key
        self.age = age
        self.coord = coord

    def aged(self) -> "_Entry":
        return _Entry(self.key, self.age + 1, self.coord)


def _kernel() -> int:
    rng = random.Random(12345)
    view = {}
    for _ in range(28000):
        key = rng.randrange(500)
        entry = view.get(key)
        view[key] = _Entry(key, 0, (key % 17, key % 5)) if entry is None else entry.aged()
    ranked = sorted(view.values(), key=lambda entry: (entry.age, entry.key))[:64]
    wire = json.dumps([[entry.key, entry.age, list(entry.coord)] for entry in ranked])
    return sum(row[0] for row in json.loads(wire))


class SpeedProbe:
    """Kernel samples of one run and the speed factor they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, repeats: int = 2) -> None:
        for _ in range(repeats):
            start = time.process_time()
            _kernel()
            self.samples.append(time.process_time() - start)

    def factor(self) -> float:
        """> 1 when this run's core was slower than the reference."""
        return statistics.mean(self.samples) / REFERENCE_S
