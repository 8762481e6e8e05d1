"""The experiment catalogue: every figure, experiment and ablation is a row.

The paper's evaluation (§4) and our ablations are one table,
:data:`EXPERIMENTS`, of :class:`Experiment` rows keyed by the ``repro
bench`` target (``e1``-``e3``, ``fig2``-``fig4``, ``a1``-``a8``). A row holds

- what it sweeps — its :class:`Point` s, built from the sweep values and
  the node budget of the current scale;
- what one seed measures — :func:`measure_layers` (the runtime's per-layer
  rounds to converge), :func:`measure_elementary` (one monolithic Vicinity
  building a ring), or a short per-seed procedure where the table needs one
  (Fig. 4's byte split, E3's reconfiguration, A3's churn, A5's baseline,
  A7's lossy links);
- how its table and, for the figures, its chart are laid out.

:func:`run_experiment` fans every point's seeds out through
:func:`run_parallel_seeds` and summarizes them into one
:class:`ExperimentResult`; :func:`format_result` renders it.

Scales are environment-controlled: ``REPRO_SCALE=ci`` (default; reduced
node and seed counts — every trend the paper reports is already visible)
or ``full`` (the paper's 25 600 nodes and 25 seeds; identical code, bigger
sweeps, hours of wall clock).
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.baselines.monolithic import MonolithicComposite, elementary_convergence
from repro.core.convergence import ConvergenceTracker, core_score
from repro.core.runtime import Runtime, RuntimeConfig
from repro.dsl import TopologyBuilder
from repro.experiments.plot import ascii_chart
from repro.experiments.stats import Stats, summarize
from repro.experiments.topologies import (
    grid_of_rings,
    iot_composite,
    line_of_stars,
    ring_of_rings,
    star_of_cliques,
)
from repro.faults.schedule import FaultSchedule, catastrophic_failure, random_churn
from repro.faults.transports import LinkQuality
from repro.faults.zones import ZoneMap
from repro.obs.export import render_table
from repro.shapes.ring import Ring
from repro.sim.config import GossipParams

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")

LAYERS = ConvergenceTracker.ALL_LAYERS

#: The five series of Figures 2 and 3, as the paper's legends name them, and
#: the tracker layer each one reads. "Elementary Topology" is the
#: per-component core protocol realizing the basic shapes; the other four
#: are UO1, UO2, port selection and port connection (§3.3 / Figure 1).
SERIES_TO_LAYER = {
    "Elementary Topology": "core",
    "Same-component (UO1)": "uo1",
    "Distant-component (UO2)": "uo2",
    "Port Selection": "port_selection",
    "Port Connection": "port_connection",
}
ALL_SERIES = tuple(SERIES_TO_LAYER)


# -- scale and the multi-seed fan-out -----------------------------------------


@dataclass(frozen=True)
class ExperimentScale:
    """The knobs every row shares between CI and paper-scale runs."""

    name: str
    seeds: Tuple[int, ...]
    max_rounds: int


_CI_SCALE = ExperimentScale(name="ci", seeds=(1, 2), max_rounds=120)
_FULL_SCALE = ExperimentScale(name="full", seeds=tuple(range(1, 26)), max_rounds=200)


def current_scale() -> ExperimentScale:
    """The scale selected by ``REPRO_SCALE`` (``ci`` default, or ``full``)."""
    name = os.environ.get("REPRO_SCALE", "ci").strip().lower()
    return _FULL_SCALE if name == "full" else _CI_SCALE


def resolve_parallelism(parallel: Optional[int] = None) -> int:
    """How many worker processes a multi-seed run should use.

    Explicit ``parallel`` wins; then the ``REPRO_PARALLEL`` environment
    variable; then all cores at ``full`` scale (the paper's 25-seed sweeps
    are embarrassingly parallel) and 1 at ``ci`` scale, where runs are
    short enough that process start-up would dominate.
    """
    if parallel is not None:
        return max(1, parallel)
    env = os.environ.get("REPRO_PARALLEL", "").strip()
    if env:
        return max(1, int(env))
    if current_scale().name == "full":
        return os.cpu_count() or 1
    return 1


def run_parallel_seeds(
    worker: Callable[[_Task], _Result],
    tasks: Sequence[_Task],
    parallel: Optional[int] = None,
) -> List[_Result]:
    """Run ``worker`` over ``tasks`` across processes, preserving task order.

    Simulations are embarrassingly parallel across seeds, so each task runs
    in its own process under
    :class:`~concurrent.futures.ProcessPoolExecutor`. Determinism is
    unaffected — every task derives its own random universe from its seed
    (see :func:`repro.sim.rng.spawn_seeds`) and results come back in task
    order, so parallel and serial runs are byte-identical (pinned by
    tests/sim/test_determinism.py).

    ``worker`` and every task must be picklable (module-level callables,
    primitive/dataclass tasks). If the platform refuses process pools (a
    sandbox without semaphores) or something in the task graph cannot be
    pickled, the run silently degrades to the serial loop — same results,
    only wall-clock changes.
    """
    tasks = list(tasks)
    workers = min(resolve_parallelism(parallel), len(tasks))
    if workers <= 1:
        return [worker(task) for task in tasks]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, tasks))
    except (OSError, pickle.PicklingError, AttributeError, BrokenProcessPool):
        return [worker(task) for task in tasks]


# -- rows ---------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """One point of a row: what every seed deploys (or builds) and measures.

    ``topology`` is an :class:`~repro.core.assembly.Assembly`, or the
    :class:`~repro.shapes.base.Shape` an elementary point builds.
    """

    label: Any
    nodes: int
    topology: Any
    config: Optional[RuntimeConfig] = None
    params: Optional[GossipParams] = None
    random_feed: bool = True


#: One measured point: the point and its per-seed samples summarized by name
#: (a :class:`Stats`, or a list of them for a per-round series).
Measured = Tuple[Point, Dict[str, Any]]


def _deploy(point: Point, seed: int):
    return Runtime(point.topology, config=point.config, seed=seed).deploy(point.nodes)


def measure_layers(task) -> Dict[str, Optional[int]]:
    """One seed: the full runtime's rounds to converge, per layer."""
    point, seed, max_rounds = task
    report = _deploy(point, seed).run_until_converged(max_rounds)
    return {layer: report.round_of(layer) for layer in LAYERS}


def measure_loss(task) -> Dict[str, Optional[int]]:
    """A7, one seed: :func:`measure_layers` with every link losing ``label``
    of its exchanges — one all-pairs rule on the fault plane."""
    point, seed, max_rounds = task
    deployment = _deploy(point, seed)
    faults = deployment.install_faults(ZoneMap(["all"]))
    faults.set_link("all", "all", LinkQuality(loss=point.label))
    report = deployment.run_until_converged(max_rounds)
    return {layer: report.round_of(layer) for layer in LAYERS}


def measure_elementary(task) -> Dict[str, Optional[int]]:
    """One seed: rounds for one monolithic Vicinity to build the shape."""
    point, seed, max_rounds = task
    result = elementary_convergence(
        point.topology,
        point.nodes,
        seed,
        max_rounds=max_rounds,
        params=point.params,
        random_feed=point.random_feed,
    )
    return {"rounds": result.rounds_to_converge}


def measure_bandwidth(task) -> Dict[str, List[float]]:
    """Fig. 4, one seed: per-node bytes per round, baseline vs overhead.

    Baseline = core protocols + peer sampling (what a monolithic
    construction of the basic shapes would also pay); overhead = the four
    assembly sub-procedures. The task's round budget is the run length.
    """
    point, seed, rounds = task
    deployment = _deploy(point, seed)
    deployment.run(rounds)
    split = deployment.bandwidth_split(rounds)
    return {
        name: [value / point.nodes for value in series]
        for name, series in split.items()
    }


def _shards(n_shards: int, total: int):
    """A star of ``n_shards`` cliques over ``total`` nodes, ~1/5 routers."""
    shard_size = max(3, (total - total // 5) // n_shards)
    return star_of_cliques(
        n_shards=n_shards,
        shard_size=shard_size,
        router_size=total - n_shards * shard_size,
    )


def _grow(
    deployment, target, max_rounds: int, base: str, change: str
) -> Dict[str, Optional[int]]:
    """Rebalance onto ``target`` and re-converge: rounds, and what moved.

    ``roles_moved`` counts every role that differs, a rank or a component
    size included; a component move is a node leaving its component.
    """
    before = deployment.role_map
    moved = deployment.rebalance(target)["roles_moved"]
    after = deployment.role_map
    switched = sum(
        1
        for node_id in after.node_ids()
        if before.has_role(node_id)
        and before.role(node_id).component != after.role(node_id).component
    )
    return {
        f"grow {base}: {change}": deployment.run_until_converged(max_rounds).slowest,
        f"  {change}: roles moved": moved,
        f"  {change}: component moves": switched,
    }


def measure_reconfiguration(task) -> Dict[str, Optional[int]]:
    """E3, one seed: converge A, rewrite it live to B, and cold-start B;
    then grow B from 4 to 6 shards, and a fresh A by two rings.

    Topology B is the MongoDB-style star of cliques over the same nodes; the
    cold start draws seed + 1000 so it is an independent run. A and B share
    no component name, so the switch deals B's fresh cut; the two growths
    keep every surviving component's members up to its new quota.
    """
    point, seed, max_rounds = task
    total = point.nodes
    target = _shards(4, total)
    deployment = _deploy(point, seed)
    initial = deployment.run_until_converged(max_rounds).slowest
    deployment.rebalance(target)
    report = deployment.run_until_converged(max_rounds)
    cold = Runtime(target, config=point.config, seed=seed + 1000).deploy(total)
    samples = {
        "converge topology A (ring-of-rings)": initial,
        "reconfigure A -> B (star-of-cliques)": report.slowest,
        "cold start of topology B": cold.run_until_converged(max_rounds).slowest,
    }
    for layer, rounds in sorted(report.rounds.items()):
        samples[f"  B per-layer: {layer}"] = rounds
    samples.update(_grow(deployment, _shards(6, total), max_rounds, "B", "4 -> 6 shards"))
    rings = _deploy(point, seed)
    rings.run_until_converged(max_rounds)
    grown = point.label + 2
    samples.update(
        _grow(
            rings,
            ring_of_rings(grown, total // grown),
            max_rounds,
            "A",
            f"{point.label} -> {grown} rings",
        )
    )
    return samples


def churn_schedule(deployment, crash_rate: float, rounds: int) -> FaultSchedule:
    """A3's churn for the next ``rounds`` rounds: ``crash_rate`` of the
    population crashes each round (never below half of it), and as many
    spares join (at least one)."""
    total, start = deployment.network.size(), deployment.engine.round
    return random_churn(
        deployment,
        deployment.streams.fork("churn").stream("crash"),
        crash_rate=crash_rate,
        join_count=max(1, int(total * crash_rate)),
        min_population=total // 2,
        at_round=start,
        until_round=start + rounds,
    )


def measure_churn(task) -> Dict[str, Optional[float]]:
    """A3, one seed: converge under churn, then lose half the nodes at once.

    Phase 1 converges while ``label`` (the crash rate) of the population
    crashes every round, with joins replacing them; only core and UO1 are
    tracked, since the port layers chase a moving oracle under heavy churn.
    Phase 2 kills 50% of the nodes, rebalances, and scores the core layer
    right after and again after a 30-round recovery window.
    """
    point, seed, max_rounds = task
    deployment = _deploy(point, seed)
    churn = churn_schedule(deployment, point.label, max_rounds).arm(deployment)
    deployment.tracker.reset()
    rounds = deployment.run_until_converged(max_rounds, layers=("core", "uo1")).slowest

    deployment.engine.controls.remove(churn)
    catastrophic_failure(
        deployment,
        deployment.streams.fork("catastrophe").stream("kill"),
        at_round=deployment.engine.round,
        fraction=0.5,
    ).arm(deployment)
    deployment.run(1)
    deployment.rebalance()  # surviving nodes take over the vacated ranks
    health = [core_score(deployment.network, deployment.role_map, deployment.assembly)]
    deployment.run(30)
    health.append(core_score(deployment.network, deployment.role_map, deployment.assembly))
    return {"rounds": rounds, "health_drop": health[0], "health_recovered": health[1]}


def measure_monolithic(task) -> Dict[str, Optional[int]]:
    """A5, one seed: the layered runtime's core vs one composite overlay.

    The monolithic baseline is only asked to realize the component shapes
    (it cannot express links at all), so it is compared with the core
    layer's convergence.
    """
    point, seed, max_rounds = task
    report = _deploy(point, seed).run_until_converged(max_rounds)
    monolithic = MonolithicComposite(point.topology, point.nodes, seed)
    return {
        "layered_runtime_core": report.round_of("core"),
        "monolithic_overlay": monolithic.run(max_rounds),
    }


@dataclass(frozen=True)
class Experiment:
    """One row of the catalogue: a table (and maybe a chart) of the paper.

    ``point(value, nodes)`` builds the point of one sweep value at the
    scale's node budget; ``full_sweep`` / ``full_nodes`` replace ``sweep`` /
    ``nodes`` at ``REPRO_SCALE=full``. ``seeds`` and ``max_rounds`` default
    to the scale's. ``title`` may name ``{label}`` and ``{nodes}`` of the
    first point. ``table`` lays the measured points out as rows under
    ``columns``; ``series`` (figures only) gives the chart's named series,
    drawn with ``chart`` = (y label, x label, width).
    """

    title: str
    columns: Tuple[str, ...]
    point: Callable[[Any, int], Point]
    table: Callable[[List[Measured]], List[Tuple]]
    sweep: Tuple[Any, ...] = (None,)
    nodes: int = 0
    measure: Callable[[Any], Dict[str, Any]] = measure_layers
    full_sweep: Optional[Tuple[Any, ...]] = None
    full_nodes: Optional[int] = None
    seeds: Optional[Tuple[int, ...]] = None
    max_rounds: Optional[int] = None
    series: Optional[Callable[[List[Measured]], Dict[str, List[float]]]] = None
    chart: Tuple[str, str, int] = ("", "", 48)

    def points(self, scale: ExperimentScale) -> List[Point]:
        full = scale.name == "full"
        sweep = self.full_sweep if full and self.full_sweep else self.sweep
        nodes = self.full_nodes if full and self.full_nodes else self.nodes
        return [self.point(value, nodes) for value in sweep]


@dataclass
class ExperimentResult:
    """One row's measurements, table and chart series."""

    experiment: Experiment
    title: str
    rows: List[Tuple]
    points: List[Measured]
    series: Dict[str, List[float]] = field(default_factory=dict)


def _summarize(samples: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-seed samples → Stats by name (a list of Stats for a series)."""
    summary: Dict[str, Any] = {}
    for key, first in samples[0].items():
        column = [sample[key] for sample in samples]
        if isinstance(first, list):
            summary[key] = [summarize(values) for values in zip(*column)]
        else:
            summary[key] = summarize(column)
    return summary


def run_experiment(experiment: Experiment) -> ExperimentResult:
    """Measure every point of ``experiment`` over the scale's seeds."""
    scale = current_scale()
    seeds = experiment.seeds or scale.seeds
    max_rounds = experiment.max_rounds or scale.max_rounds
    measured: List[Measured] = []
    for point in experiment.points(scale):
        tasks = [(point, seed, max_rounds) for seed in seeds]
        samples = run_parallel_seeds(experiment.measure, tasks)
        measured.append((point, _summarize(samples)))
    first = measured[0][0]
    return ExperimentResult(
        experiment=experiment,
        title=experiment.title.format(label=first.label, nodes=first.nodes),
        rows=experiment.table(measured),
        points=measured,
        series=experiment.series(measured) if experiment.series else {},
    )


def format_result(result: ExperimentResult) -> str:
    """The result's table, followed by its chart when the row has one."""
    text = render_table(result.experiment.columns, result.rows, title=result.title)
    if not result.series:
        return text
    y_label, x_label, width = result.experiment.chart
    chart = ascii_chart(
        result.series, width=width, height=12, y_label=y_label, x_label=x_label
    )
    return f"{text}\n\n{chart}"


# -- points and table layouts -------------------------------------------------


def _rings(n_rings: int, n_nodes: int, label: Any = None, **overrides) -> Point:
    """A ring of ``n_rings`` rings sharing ``n_nodes`` (rounded down)."""
    ring_size = max(2, n_nodes // n_rings)
    return Point(
        label=n_rings if label is None else label,
        nodes=n_rings * ring_size,
        topology=ring_of_rings(n_rings=n_rings, ring_size=ring_size),
        **overrides,
    )


def _skewed_rings(n_nodes: int) -> Point:
    """A8's skew: one ring holding half the nodes plus seven small ones."""
    sizes = [n_nodes // 2] + [max(2, (n_nodes // 2) // 7)] * 7
    builder = TopologyBuilder("SkewedRings")
    for index, size in enumerate(sizes):
        builder.component(f"ring{index}", "ring", size=size).port(
            "west", "rank(0)"
        ).port("east", f"rank({max(1, size // 2)})")
    for index in range(len(sizes)):
        builder.link(
            (f"ring{index}", "east"), (f"ring{(index + 1) % len(sizes)}", "west")
        )
    return Point("skewed", sum(sizes), builder.nodes(sum(sizes)).build())


def _star_of_cliques(_value: Any, n_nodes: int) -> Point:
    """A5's MongoDB-style cluster: four shard cliques and a router star."""
    shard_size = max(3, (n_nodes - max(4, n_nodes // 13)) // 4)
    topology = star_of_cliques(
        n_shards=4, shard_size=shard_size, router_size=n_nodes - 4 * shard_size
    )
    return Point(None, n_nodes, topology)


#: E1's predefined composites, sized as the paper's real-world analogues.
_COMPOSITES = {
    "star_of_cliques (MongoDB)": lambda: star_of_cliques(4, 18, 8),
    "ring_of_rings": lambda: ring_of_rings(8, 16),
    "grid_of_rings": lambda: grid_of_rings(3, 3, 12),
    "line_of_stars": lambda: line_of_stars(4, 12),
    "iot_composite": lambda: iot_composite(32, 15, 12, 5),
}


def _composite(name: str, _nodes: int) -> Point:
    topology = _COMPOSITES[name]()
    return Point(name, topology.total_nodes, topology)


def _view_size(view_size: int, n_nodes: int) -> Point:
    params = GossipParams(
        view_size=view_size,
        gossip_size=max(2, view_size // 2),
        healer=1,
        swapper=min(4, view_size - 1),
    )
    return Point(view_size, n_nodes, Ring(), params=params)


def _slowest(summary: Dict[str, Stats]) -> Stats:
    return max(summary.values(), key=lambda s: (s.failures, s.mean if s.n else 0))


def _series_cells(summary: Dict[str, Stats]) -> Tuple[str, ...]:
    return tuple(str(summary[layer]) for layer in SERIES_TO_LAYER.values())


def _layer_means(measured: List[Measured]) -> Dict[str, List[float]]:
    return {
        name: [summary[layer].mean for _, summary in measured]
        for name, layer in SERIES_TO_LAYER.items()
    }


def _by_name(measured: List[Measured]) -> List[Tuple]:
    """One row per measured name of a single point."""
    return [(name, str(stats)) for name, stats in measured[0][1].items()]


def _by_point(measured: List[Measured]) -> List[Tuple]:
    """One row per point: its label and its one measured value."""
    return [(point.label, str(summary["rounds"])) for point, summary in measured]


def _layers_by_point(measured: List[Measured]) -> List[Tuple]:
    """One row per layer (sorted), one column per point."""
    return [
        (layer,) + tuple(str(summary[layer]) for _, summary in measured)
        for layer in sorted(LAYERS)
    ]


def _churn_table(measured: List[Measured]) -> List[Tuple]:
    point, summary = measured[0]
    rounds = summary["rounds"]
    return [
        ("crash rate / round", f"{point.label:.0%}"),
        ("runs converged under churn", f"{rounds.n}/{rounds.n + rounds.failures}"),
        ("rounds to converge (churn)", str(rounds)),
        (
            "core health right after 50% loss + rebalance",
            f"{summary['health_drop'].mean:.2f}",
        ),
        (
            "core health after 30 recovery rounds",
            f"{summary['health_recovered'].mean:.2f}",
        ),
    ]


def _bandwidth_table(measured: List[Measured]) -> List[Tuple]:
    summary = measured[0][1]
    return [
        (index, f"{baseline.mean:.0f}", f"{overhead.mean:.0f}")
        for index, (baseline, overhead) in enumerate(
            zip(summary["baseline"], summary["overhead"])
        )
    ]


def _bandwidth_means(measured: List[Measured]) -> Dict[str, List[float]]:
    summary = measured[0][1]
    return {
        "Baseline": [stats.mean for stats in summary["baseline"]],
        "Overhead": [stats.mean for stats in summary["overhead"]],
    }


EXPERIMENTS: Dict[str, Experiment] = {
    "e1": Experiment(
        title="E1: convergence of complex real-world-like topologies "
        "(rounds, mean ±90% CI)",
        columns=("Topology", "Nodes", "Comps", "Links", "Core", "PortConn", "Slowest layer"),
        point=_composite,
        sweep=tuple(_COMPOSITES),
        table=lambda measured: [
            (
                point.label,
                point.nodes,
                len(point.topology.components),
                len(point.topology.links),
                str(summary["core"]),
                str(summary["port_connection"]),
                str(_slowest(summary)),
            )
            for point, summary in measured
        ],
    ),
    "e2": Experiment(
        title="Experiment (ii): convergence on a ring of 8 rings of 16 nodes "
        "(mean ±90% CI over seeds)",
        columns=("Sub-procedure", "Rounds to converge"),
        point=_rings,
        sweep=(8,),
        nodes=128,
        table=lambda measured: [
            (name, str(measured[0][1][layer]))
            for name, layer in SERIES_TO_LAYER.items()
        ],
    ),
    "e3": Experiment(
        title="Experiment (iii): dynamic reconfiguration (mean ±90% CI over seeds)",
        columns=("Phase", "Rounds to converge"),
        point=_rings,
        sweep=(8,),
        nodes=128,
        measure=measure_reconfiguration,
        table=_by_name,
    ),
    "fig2": Experiment(
        title="Figure 2: rounds to converge vs number of nodes "
        "(ring-of-rings, 20 components; mean ±90% CI over seeds)",
        columns=("# of Nodes",) + ALL_SERIES,
        point=lambda n_nodes, _nodes: _rings(20, n_nodes),
        sweep=(100, 200, 400, 800, 1600),
        full_sweep=(100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600),
        table=lambda measured: [
            (point.nodes,) + _series_cells(summary) for point, summary in measured
        ],
        series=_layer_means,
        chart=("rounds", "# of nodes (log axis) ->", 48),
    ),
    "fig3": Experiment(
        title="Figure 3: rounds to converge vs number of components "
        "(ring-of-rings, fixed node budget; mean ±90% CI over seeds)",
        columns=("# of Components", "# of Nodes") + ALL_SERIES,
        point=_rings,
        sweep=(2, 4, 8, 12, 16, 20),
        nodes=640,
        full_sweep=(1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20),
        full_nodes=25600,
        table=lambda measured: [
            (point.label, point.nodes) + _series_cells(summary)
            for point, summary in measured
        ],
        series=_layer_means,
        chart=("rounds", "# of components ->", 48),
    ),
    "fig4": Experiment(
        title="Figure 4: per-node bandwidth per round "
        "({label} components, {nodes} nodes; "
        "baseline = core protocols + peer sampling, "
        "overhead = UO1 + UO2 + port selection + port connection)",
        columns=("Round", "Baseline (bytes/node)", "Overhead (bytes/node)"),
        point=_rings,
        sweep=(20,),
        nodes=640,
        full_nodes=25600,
        max_rounds=20,
        measure=measure_bandwidth,
        table=_bandwidth_table,
        series=_bandwidth_means,
        chart=("bytes/node/round", "rounds ->", 60),
    ),
    "a1": Experiment(
        title="A1: elementary ring (256 nodes) vs Vicinity view size",
        columns=("View size", "Rounds to converge"),
        point=_view_size,
        sweep=(4, 8, 12, 16, 24),
        nodes=256,
        measure=measure_elementary,
        table=_by_point,
    ),
    "a2": Experiment(
        title="A2: elementary ring (256 nodes) with/without the "
        "peer-sampling candidate feed",
        columns=("Configuration", "Rounds to converge"),
        point=lambda feed, n_nodes: Point(
            "with_random_feed" if feed else "without_random_feed",
            n_nodes,
            Ring(),
            random_feed=feed,
        ),
        sweep=(True, False),
        nodes=256,
        max_rounds=40,
        measure=measure_elementary,
        table=_by_point,
    ),
    "a3": Experiment(
        title="A3: churn resilience and catastrophic-failure recovery "
        "(ring-of-rings, 192 nodes)",
        columns=("Metric", "Value"),
        point=lambda crash_rate, n_nodes: _rings(6, n_nodes, label=crash_rate),
        sweep=(0.01,),
        nodes=192,
        measure=measure_churn,
        table=_churn_table,
    ),
    "a4": Experiment(
        title="A4: full runtime with Vicinity vs T-Man core protocols "
        "(ring-of-rings, 128 nodes; rounds to converge)",
        columns=("Layer", "tman", "vicinity"),
        point=lambda flavor, n_nodes: _rings(
            8, n_nodes, label=flavor, config=RuntimeConfig(core_flavor=flavor)
        ),
        sweep=("tman", "vicinity"),
        nodes=128,
        table=_layers_by_point,
    ),
    "a5": Experiment(
        title="A5: star-of-cliques (104 nodes) — layered runtime vs "
        "one monolithic overlay",
        columns=("Design", "Rounds to realize all component shapes"),
        point=_star_of_cliques,
        nodes=104,
        measure=measure_monolithic,
        table=_by_name,
    ),
    "a7": Experiment(
        title="A7: full-runtime convergence under message loss "
        "(ring-of-rings, 128 nodes; rounds, mean ±90% CI)",
        columns=("Loss rate", "Core", "Port connection", "Slowest layer"),
        point=lambda loss, n_nodes: _rings(8, n_nodes, label=loss),
        sweep=(0.0, 0.1, 0.2, 0.4),
        nodes=128,
        measure=measure_loss,
        table=lambda measured: [
            (
                f"{point.label:.0%}",
                str(summary["core"]),
                str(summary["port_connection"]),
                str(_slowest(summary)),
            )
            for point, summary in measured
        ],
    ),
    "a8": Experiment(
        title="A8: convergence with uniform vs skewed component sizes "
        "(160 nodes; rounds, mean ±90% CI)",
        columns=("Layer", "Balanced (8 equal rings)", "Skewed (1 giant + 7 small)"),
        point=lambda variant, n_nodes: (
            _skewed_rings(n_nodes)
            if variant == "skewed"
            else _rings(8, n_nodes, label=variant)
        ),
        sweep=("balanced", "skewed"),
        nodes=160,
        table=_layers_by_point,
    ),
}
