"""The five workloads and their deterministic input generators.

Everything the program receives is made here from the seed: DSL text, a
``RunnerConfig``, a victim list. The benchmark writes the DSL itself (it
does not go through ``to_source``), so the parser and compiler are fed the
way a user feeds them.

Why a run is many cells. Rounds-to-convergence of one seed has a relative
standard deviation of 15-25 % on every workload (the last missing edge is
heavy-tailed; grid-100 spans 6..13 rounds over 30 seeds, the ring of rings
11..21), so a single-seed run cannot resolve any bound the driver admits.
A run therefore measures ``cells`` independent cells, one per sub-seed
drawn from ``--seed``, and reports their mean; cell 0 always uses
``--seed`` itself, and is replayed once with tracing on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.runtime import RunnerConfig

#: The run length the ``cells`` counts below are sized for (``run_seconds``
#: in BENCHMARK.json); ``--seconds`` scales the cell count in proportion.
NOMINAL_SECONDS = 10

#: Share of live nodes ``repair_ror`` kills.
VICTIM_FRACTION = 0.25


@dataclass(frozen=True)
class Workload:
    """One workload: what it runs, at which size, and why it was chosen."""

    name: str
    #: One line, recorded verbatim in BENCHMARK.json.
    why: str
    #: Which cell procedure of :mod:`bench.runner` runs it.
    procedure: str
    size: Dict[str, int]
    smoke_size: Dict[str, int]
    #: Cells per run at :data:`NOMINAL_SECONDS`.
    cells: int


_ROR = {"rings": 20, "ring_size": 6}
_ROR_SMOKE = {"rings": 5, "ring_size": 8}

WORKLOADS: Sequence[Workload] = (
    Workload(
        "assembly_ror",
        "Paper Fig. 2: DSL text of 20 rings x 6 nodes (120) to a converged assembly on the "
        "round runner; all six Figure-1 layers work, wire/scale/obs idle. 16 cells, one seed "
        "each.",
        "assembly",
        _ROR,
        _ROR_SMOKE,
        16,
    ),
    Workload(
        "repair_ror",
        "The same 120-node assembly, converged in set-up; kill 25 % (30 nodes), rebalance, "
        "re-converge: purge/adopt/re-elect, so state that helps assembly but must be invalidated "
        "shows. 16 cells.",
        "repair",
        _ROR,
        _ROR_SMOKE,
        16,
    ),
    Workload(
        "traced_ror",
        "assembly_ror with the program's Collector + FlowTracer attached: the operator's path, "
        "where obs hooks and provenance minting do the marginal work; assembly_ror is its "
        "bypass. 16 cells.",
        "traced",
        _ROR,
        _ROR_SMOKE,
        16,
    ),
    Workload(
        "wire_grid",
        "Elementary stack on a 10x10 grid (100 nodes), every exchange through the wire codec "
        "(LoopbackTransport decorator): per-frame cost dominates, no upper layer runs; digest = "
        "plain transport's. 24 cells.",
        "wire",
        {"nodes": 100},
        {"nodes": 36},
        24,
    ),
    Workload(
        "scale_ring",
        "Elementary ring of 96 on the sharded BSP runner (columnar, 2 shards, mp): scale/ does "
        "all the work, round engine and core/layers are bypassed; digest = serial-object's. "
        "24 cells.",
        "scale",
        {"nodes": 96},
        {"nodes": 48},
        24,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def cell_count(workload: Workload, seconds: float, smoke: bool) -> int:
    """How many cells a run of ``seconds`` measures (smoke: always two)."""
    if smoke:
        return 2
    return max(2, round(workload.cells * seconds / NOMINAL_SECONDS))


def sub_seeds(seed: int, count: int) -> List[int]:
    """``count`` distinct cell seeds from ``seed``; the first is ``seed``."""
    rng = random.Random(seed)
    seeds = [seed]
    while len(seeds) < count:
        candidate = rng.randrange(1, 2**31)
        if candidate not in seeds:
            seeds.append(candidate)
    return seeds


def ror_source(rings: int, ring_size: int) -> str:
    """DSL text for a ring of ``rings`` rings (the paper's experiment ii).

    Same syntax as ``examples/topologies/ring_of_rings.topo``: every ring
    exposes ``west`` at rank 0 and ``east`` at the opposite rank, and ring
    ``i``'s east port links to ring ``i+1``'s west port.
    """
    east = ring_size // 2
    lines = [
        "topology RingOfRings {",
        f"    nodes {rings * ring_size}",
        "    assign proportional",
        "",
    ]
    for index in range(rings):
        lines.append(
            f"    component ring{index} : ring(size = {ring_size}) "
            f"{{ port west : rank(0)  port east : rank({east}) }}"
        )
    lines.append("")
    for index in range(rings):
        lines.append(f"    link ring{index}.east -- ring{(index + 1) % rings}.west")
    lines.append("}")
    return "\n".join(lines) + "\n"


def victims(alive_ids: Sequence[int], seed: int) -> List[int]:
    """The nodes ``repair_ror`` kills: a seeded quarter of the live ones."""
    pool = sorted(alive_ids)
    return random.Random(seed).sample(pool, int(len(pool) * VICTIM_FRACTION))


def grid_config(nodes: int, seed: int, max_rounds: int) -> RunnerConfig:
    return RunnerConfig(
        kind="round", shape="grid", n_nodes=nodes, seed=seed, max_rounds=max_rounds
    )


def ring_config(nodes: int, seed: int, max_rounds: int, reference: bool) -> RunnerConfig:
    """``scale_ring``'s config, or its serial-object reference."""
    if reference:
        placement = {"backend": "object", "n_shards": 1, "mode": "inline"}
    else:
        placement = {"backend": "columnar", "n_shards": 2, "mode": "mp"}
    return RunnerConfig(
        kind="sharded",
        shape="ring",
        n_nodes=nodes,
        seed=seed,
        max_rounds=max_rounds,
        **placement,
    )
