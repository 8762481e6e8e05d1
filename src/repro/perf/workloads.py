"""The fixed, deterministic workload matrices of the elementary stack.

Each workload deploys the *elementary* gossip stack — global peer sampling
feeding one Vicinity overlay — over one shape at one node count, and
:func:`run_cell` runs it to shape convergence on whichever in-process
runner a :class:`~repro.runtime.api.RunnerConfig` selects: the round
engine (the ``gossip`` suite — the per-round view ranking and merging hot
path, with none of the assembly runtime's upper layers diluting it) or the
barrier-synchronous sharded engine (the ``scale`` suite, whose digests are
invariant to shard count and process placement).

Simulation-side module: everything here is driven by seeds and round
counters (the determinism linter forbids clock reads under ``perf/``,
DET003). Every matrix has its per-seed digests, message / byte counts and
rounds-to-converge committed in ``tests/scale/elementary_cells.json``;
``tests/scale/test_digests.py`` reproduces them from fresh runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.collector import Collector
from repro.obs.hooks import attach_collector_to_engine
from repro.runtime.api import RunnerConfig, make_runner, run_until


@dataclass(frozen=True)
class Workload:
    """One cell of a matrix: a shape at a node count.

    Frozen and built from primitives only, so it pickles cleanly into
    worker processes.
    """

    name: str
    shape: str
    n_nodes: int
    max_rounds: int = 60

    def config(self, seed: int, kind: str = "round", **engine: Any) -> RunnerConfig:
        """The runner configuration of this cell under ``seed``.

        The cell name doubles as ``RunnerConfig.workload`` — the label the
        sharded engine folds into its per-node seed derivation.
        """
        return RunnerConfig(
            kind=kind,
            workload=self.name,
            shape=self.shape,
            n_nodes=self.n_nodes,
            seed=seed,
            **engine,
        )


@dataclass(frozen=True)
class CellResult:
    """Outcome of one (workload, seed, runner) run — everything but wall time."""

    workload: str
    seed: int
    #: How the rounds were actually executed (``mp`` degrades to ``inline``
    #: where no process pool is available).
    mode: str
    rounds_to_converge: Optional[int]
    executed: int
    messages: int
    bytes: int
    digest: str

    def to_dict(self) -> Dict:
        return asdict(self)


#: The committed matrices, keyed by ``(suite, scale)``.
#:
#: ``gossip`` — the round engine; shapes chosen to cover distinct metric
#: structure (1-D ring/line orders, 2-D grids, uniform cliques, recursive
#: trees and hypercubes), node counts set the candidate-pool pressure, and
#: every cell converges within a couple of simulated seconds.
#:
#: ``scale`` — the sharded engine. ``ci`` stays small enough for the
#: default test lane; ``1k`` is the slow lane's sharding equivalence
#: gate.
_MATRICES: Dict[Tuple[str, str], Tuple[Workload, ...]] = {
    ("gossip", "ci"): (
        Workload("ring-64", "ring", 64),
        Workload("ring-256", "ring", 256),
        Workload("grid-64", "grid", 64),
        Workload("torus-64", "torus", 64),
        Workload("hypercube-64", "hypercube", 64),
        Workload("kring-96", "kring", 96),
        Workload("tree-63", "tree", 63),
        Workload("clique-32", "clique", 32),
    ),
    ("scale", "ci"): (
        Workload("ring-64", "ring", 64),
        Workload("grid-64", "grid", 64),
    ),
    ("scale", "1k"): (
        Workload("ring-1024", "ring", 1024, max_rounds=90),
        Workload("grid-1024", "grid", 1024, max_rounds=90),
    ),
}


def workload_matrix(scale: str = "ci", suite: str = "gossip") -> Tuple[Workload, ...]:
    """The fixed matrix of ``suite`` at ``scale``."""
    try:
        return _MATRICES[(suite, scale)]
    except KeyError:
        known = ", ".join(f"{s}/{c}" for s, c in _MATRICES)
        raise ConfigurationError(
            f"no workload matrix {suite}/{scale} (known: {known})"
        ) from None


def run_cell(
    config: RunnerConfig, max_rounds: int, collector: Optional[Collector] = None
) -> CellResult:
    """Deploy, run to shape convergence (or ``max_rounds``), and fingerprint.

    Deterministic: the result (digest included) is a pure function of
    ``(config.workload, shape, n_nodes, seed)`` and the runner kind —
    shard count and execution mode only select a schedule of the *same*
    computation. An attached ``collector``
    only reads simulation state — it never touches the per-node RNG
    streams — so the digest is identical with or without it (pinned by
    tests/obs/test_disabled_path.py).
    """
    runner = make_runner(config)
    try:
        if collector is not None:
            attach_collector_to_engine(runner, collector)
        converged_at = run_until(runner, runner.converged, max_rounds)
        return CellResult(
            workload=config.workload,
            seed=config.seed,
            mode=runner.mode_used,
            rounds_to_converge=converged_at,
            executed=runner.round,
            messages=runner.messages,
            bytes=runner.bytes,
            digest=runner.digest(),
        )
    finally:
        runner.close()
