"""Runs one workload in this process: cells, the traced replay, the checks.

A run is closed loop with one client and no threads of its own. Each cell
is set-up (inputs from the cell seed, compile, deploy, the reference or
pre-convergence run) followed by one timed phase (``gc.collect()`` first,
GC left on) that ends when the convergence predicate holds. After the
cells, cell 0 is replayed with the benchmark's :class:`TraceInstrument`
attached; the replay must reproduce cell 0's digest, rounds, bytes and
every exact count, which checks determinism and that tracing interferes
with nothing.
"""

from __future__ import annotations

import gc
import multiprocessing
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro import Runtime, compile_source
from repro.obs.collector import Collector
from repro.obs.flow import FlowTracer
from repro.obs.hooks import attach_collector
from repro.perf.digest import overlay_digest
from repro.runtime import make_runner
from repro.runtime.loopback import LoopbackTransport
from repro.sim.transport import Transport

from bench.metrics import ELEMENTARY_LAYERS, END_TO_END, PER_LAYER, ROR_LAYERS
from bench.speed import SpeedProbe
from bench.trace import TimedTransport, TraceInstrument, span_durations, span_totals
from bench.workloads import (
    Workload,
    cell_count,
    grid_config,
    ring_config,
    ror_source,
    sub_seeds,
    victims,
)


def cpu_seconds() -> float:
    """CPU seconds of this process and of every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reap_children() -> None:
    """Wait for the program's shard workers, so their CPU time is counted."""
    for child in multiprocessing.active_children():
        child.join(30)
        if child.is_alive():
            child.terminate()
            child.join()


def peak_rss_mb() -> float:
    """Peak resident set of this process, from its own address space.

    ``VmHWM`` rather than ``ru_maxrss``: Linux carries ``ru_maxrss`` across
    fork and exec, so a process started by a larger one (the driver, or
    ``python3 -m bench`` running all workloads) would report its parent's.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Timed:
    """CPU and wall seconds of a ``with`` block, after a speed-probe sample."""

    cpu_s = 0.0
    wall_s = 0.0

    def __init__(self, probe: SpeedProbe):
        self._probe = probe

    def __enter__(self) -> "Timed":
        gc.collect()
        self._probe.sample()
        self._cpu = cpu_seconds()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.cpu_s = cpu_seconds() - self._cpu
        self.wall_s = time.perf_counter() - self._wall
        self._probe.sample()


@dataclass
class Cell:
    """What one cell (or the traced replay of cell 0) produced."""

    seed: int
    nodes: int = 0
    rounds: Optional[int] = None
    traffic_bytes: int = 0
    digest: str = ""
    cpu_s: float = 0.0
    wall_s: float = 0.0
    setup_s: float = 0.0
    #: Counts that repeat exactly for a seed; the replay must reproduce them.
    exact: Dict[str, Any] = field(default_factory=dict)
    #: Wall-clock timers taken around single calls into the program.
    timers: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    trace: Optional[TraceInstrument] = None

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "digest": self.digest,
            "rounds": self.rounds,
            "traffic_bytes": self.traffic_bytes,
            **self.exact,
        }


def _converge(runner, converged: Callable[[], bool], max_rounds: int) -> Optional[int]:
    for index in range(max_rounds):
        runner.run_round()
        if converged():
            return index + 1
    return None


def _ror_cell(
    workload: Workload, size, seed: int, max_rounds: int, traced: bool, probe: SpeedProbe
) -> Cell:
    """``assembly_ror`` / ``repair_ror`` / ``traced_ror``: the layered runtime."""
    procedure = workload.procedure
    cell = Cell(seed)
    setup_start = cpu_seconds()
    source = ror_source(**size)
    cell.exact["dsl.source_bytes"] = len(source.encode())
    start = time.perf_counter()
    assembly = compile_source(source)
    cell.timers["dsl.compile_s"] = time.perf_counter() - start
    start = time.perf_counter()
    deployment = Runtime(assembly, seed=seed).deploy()
    cell.timers["deploy.install_s"] = time.perf_counter() - start
    collector = None
    if procedure == "traced":
        collector = attach_collector(
            deployment, Collector(gauge_every=0, flow=FlowTracer())
        )
    doomed: List[int] = []
    if procedure == "repair":
        if not deployment.run_until_converged(max_rounds).converged:
            cell.failures.append(f"set-up did not converge in {max_rounds} rounds")
            return cell
        doomed = victims(deployment.network.alive_ids(), seed)
    roles_before = deployment.role_map
    transport = deployment.transport
    bytes_before = {layer: transport.total_bytes(layer) for layer in ROR_LAYERS}
    if traced:
        cell.trace = TraceInstrument(tee=collector)
        deployment.engine.obs = cell.trace
    cell.setup_s = cpu_seconds() - setup_start

    with Timed(probe) as timed:
        if procedure == "repair":
            for node_id in doomed:
                deployment.network.kill(node_id)
            start = time.perf_counter()
            deployment.rebalance()
            cell.timers["repair.rebalance_s"] = time.perf_counter() - start
            deployment.tracker.reset()
        report = deployment.run_until_converged(max_rounds)

    cell.cpu_s, cell.wall_s = timed.cpu_s, timed.wall_s
    cell.nodes = deployment.network.alive_count()
    if report.converged:
        cell.rounds = report.executed
    else:
        cell.failures.append(f"not converged in {max_rounds} rounds: {report.rounds}")
    for layer in ROR_LAYERS:
        cell.exact[f"{layer}.bytes"] = transport.total_bytes(layer) - bytes_before[layer]
    cell.traffic_bytes = sum(cell.exact[f"{layer}.bytes"] for layer in ROR_LAYERS)
    for layer, round_index in report.rounds.items():
        cell.exact[f"{layer}.converged_round"] = round_index
    cell.digest = overlay_digest(deployment.network, ROR_LAYERS)
    if procedure == "repair":
        roles = deployment.role_map
        cell.exact["repair.victims"] = len(doomed)
        cell.exact["repair.role_changes"] = sum(
            1
            for node_id in roles.node_ids()
            if not roles_before.has_role(node_id)
            or roles_before.role(node_id) != roles.role(node_id)
        )
    if collector is not None:
        cell.exact["obs.counter_increments"] = sum(collector.counters.values())
        cell.exact["obs.events"] = len(collector.events)
        cell.exact["obs.flow_deliveries"] = collector.flow.deliveries
    return cell


def _wire_cell(
    workload: Workload, size, seed: int, max_rounds: int, traced: bool, probe: SpeedProbe
) -> Cell:
    """``wire_grid``: the elementary stack with every exchange on the codec."""
    cell = Cell(seed, nodes=size["nodes"])
    setup_start = cpu_seconds()
    config = grid_config(size["nodes"], seed, max_rounds)
    reference = make_runner(config)
    _converge(reference, reference.deployment.converged, max_rounds)
    reference_digest = overlay_digest(reference.deployment.network, ELEMENTARY_LAYERS)
    inner = Transport(config.costs)
    if traced:
        cell.trace = TraceInstrument()
        inner = TimedTransport(inner)
    transport = loopback = LoopbackTransport(inner)
    if traced:
        transport = TimedTransport(loopback)
    runner = make_runner(config, transport=transport, obs=cell.trace)
    cell.setup_s = cpu_seconds() - setup_start

    with Timed(probe) as timed:
        cell.rounds = _converge(runner, runner.deployment.converged, max_rounds)

    cell.cpu_s, cell.wall_s = timed.cpu_s, timed.wall_s
    if cell.rounds is None:
        cell.failures.append(f"not converged in {max_rounds} rounds")
    cell.traffic_bytes = transport.total_bytes()
    for layer in ELEMENTARY_LAYERS:
        cell.exact[f"{layer}.bytes"] = transport.total_bytes(layer)
    cell.exact["wire.frames"] = loopback.wire_frames
    cell.exact["wire.bytes"] = loopback.wire_bytes
    cell.digest = overlay_digest(runner.deployment.network, ELEMENTARY_LAYERS)
    if cell.digest != reference_digest:
        cell.failures.append("digest differs from the plain transport's")
    if traced:
        cell.timers["wire.codec_s"] = transport.exchange_s - inner.exchange_s
    return cell


def _scale_cell(
    workload: Workload, size, seed: int, max_rounds: int, traced: bool, probe: SpeedProbe
) -> Cell:
    """``scale_ring``: make_runner -> BSP rounds -> close, on two workers."""
    cell = Cell(seed, nodes=size["nodes"])
    setup_start = cpu_seconds()
    reference = make_runner(ring_config(size["nodes"], seed, max_rounds, reference=True))
    try:
        _converge(reference, reference.converged, max_rounds)
        reference_digest = reference.digest()
    finally:
        reference.close()
    config = ring_config(size["nodes"], seed, max_rounds, reference=False)
    if traced:
        cell.trace = TraceInstrument()
    check_s = 0.0
    cell.setup_s = cpu_seconds() - setup_start

    with Timed(probe) as timed:
        parent_start = time.process_time()
        start = time.perf_counter()
        runner = make_runner(config, obs=cell.trace)
        cell.timers["shard.spinup_s"] = time.perf_counter() - start

        def converged() -> bool:
            nonlocal check_s
            start = time.perf_counter()
            try:
                return runner.converged()
            finally:
                check_s += time.perf_counter() - start

        try:
            cell.rounds = _converge(runner, converged, max_rounds)
            cell.digest = runner.digest()
        finally:
            runner.close()
            reap_children()
        parent_cpu_s = time.process_time() - parent_start

    cell.cpu_s, cell.wall_s = timed.cpu_s, timed.wall_s
    cell.timers["shard.converged_check_s"] = check_s
    cell.timers["shard.parent_cpu_s"] = parent_cpu_s
    cell.timers["shard.worker_cpu_s"] = cell.cpu_s - parent_cpu_s
    if cell.rounds is None:
        cell.failures.append(f"not converged in {max_rounds} rounds")
    cell.traffic_bytes = runner.bytes
    cell.exact["shard.messages"] = runner.messages
    if runner.mode_used != "mp":
        cell.failures.append(f"mode_used is {runner.mode_used!r}, not 'mp'")
    if cell.digest != reference_digest:
        cell.failures.append("digest differs from serial-object's")
    return cell


_PROCEDURES = {
    "assembly": _ror_cell,
    "repair": _ror_cell,
    "traced": _ror_cell,
    "wire": _wire_cell,
    "scale": _scale_cell,
}


def _run_cell(
    workload: Workload, size, seed: int, max_rounds: int, traced: bool, probe: SpeedProbe
) -> Cell:
    """One cell; an exception inside the program is that cell's failure."""
    try:
        return _PROCEDURES[workload.procedure](
            workload, size, seed, max_rounds, traced, probe
        )
    except Exception:
        reap_children()
        return Cell(seed, failures=[traceback.format_exc()])


def _quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def _end_to_end(
    cells: List[Cell], import_s: float, rss_mb: float, speed: float
) -> Dict[str, float]:
    """Means over the cells; CPU times in reference-speed seconds."""
    cpu = sum(cell.cpu_s for cell in cells) / speed
    node_rounds = sum(cell.nodes * cell.rounds for cell in cells)
    return {
        "cpu_s": cpu / len(cells),
        "rounds": sum(cell.rounds for cell in cells) / len(cells),
        "traffic_bytes": sum(cell.traffic_bytes for cell in cells) / len(cells),
        "node_rounds_per_s": node_rounds / cpu,
        "peak_rss_mb": rss_mb,
        "setup_s": (import_s + statistics.median(cell.setup_s for cell in cells)) / speed,
    }


def _per_layer(workload: Workload, cells: List[Cell], replay: Cell) -> Dict[str, float]:
    """Every per-layer metric; 0 where the workload has no such layer.

    Spans and counters come from the traced replay; timers taken in every
    cell are the median over the cells.
    """
    out: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    trace = replay.trace
    total, own = span_totals(trace.spans)
    layers = ELEMENTARY_LAYERS if workload.procedure in ("wire", "scale") else ROR_LAYERS
    for layer in layers:
        received = trace.counter("descriptors_received", layer)
        out[f"{layer}.busy_s"] = total.get("layer:" + layer, 0.0)
        out[f"{layer}.exchanges"] = trace.counter("exchanges", layer)
        out[f"{layer}.descriptors_received"] = received
        if received:
            out[f"{layer}.useful_descriptor_ratio"] = (
                trace.counter("descriptor_churn", layer) / received
            )
    for name, value in replay.exact.items():
        if name in out and value is not None:
            out[name] = value
    for name in set(replay.timers).union(*(cell.timers for cell in cells)):
        samples = [cell.timers[name] for cell in cells if name in cell.timers]
        out[name] = statistics.median(samples) if samples else replay.timers[name]
    out["engine.self_s"] = own.get("steps", 0.0)
    out["convergence.observe_s"] = total.get("observe", 0.0)
    rounds_ms = [1000.0 * seconds for seconds in span_durations(trace.spans, "round")]
    out["engine.round_ms_p50"] = statistics.median(rounds_ms)
    out["engine.round_ms_max"] = max(rounds_ms)
    out["engine.wall_s"] = statistics.median(cell.wall_s for cell in cells)
    out["repair.dead_purged"] = sum(
        trace.counter("dead_purged", layer) for layer in ROR_LAYERS
    )
    frames = out["wire.frames"]
    if frames:
        out["wire.us_per_frame"] = 1e6 * out["wire.codec_s"] / frames
        out["wire.bytes_per_frame"] = out["wire.bytes"] / frames
    for phase in ("request", "respond", "absorb", "barrier"):
        out[f"shard.{phase}_s"] = total.get("shard:" + phase, 0.0)
    if workload.procedure == "scale":
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        out["shard.worker_peak_rss_mb"] = children.ru_maxrss / 1024.0
    out["bench.trace_overhead_fraction"] = replay.cpu_s / cells[0].cpu_s - 1.0
    out["bench.trace_residual_fraction"] = own["round"] / total["round"]
    return out


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    smoke: bool = False,
    max_rounds: int = 120,
) -> Dict[str, Any]:
    """Run ``workload`` and return its full report (see ``bench/README.md``)."""
    # Everything the cells import is loaded by now, so this is the cost of
    # interpreter start plus imports: the fixed part of set-up.
    import_s = cpu_seconds()
    size = workload.smoke_size if smoke else workload.size
    seeds = sub_seeds(seed, cell_count(workload, seconds, smoke))
    probe = SpeedProbe()
    # Last to first, so cell 0 is warm and is measured right before its
    # traced replay: the two then differ by the tracing alone.
    cells = [
        _run_cell(workload, size, cell_seed, max_rounds, False, probe)
        for cell_seed in reversed(seeds)
    ][::-1]
    rss_mb = peak_rss_mb()
    replay = _run_cell(workload, size, seeds[0], max_rounds, True, probe)
    if not replay.failures and replay.fingerprint() != cells[0].fingerprint():
        replay.failures.append(
            f"traced replay differs from cell 0: {replay.fingerprint()} "
            f"!= {cells[0].fingerprint()}"
        )

    attempted = cells + [replay]
    failed = [cell for cell in attempted if cell.failures]
    report: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "size": size,
        "cells": len(cells),
        "max_rounds": max_rounds,
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "failed_fraction": len(failed) / len(attempted),
        "failures": [
            {"seed": cell.seed, "traced": cell is replay, "why": cell.failures}
            for cell in failed
        ],
        "end_to_end": {},
        "per_layer": {},
        "samples": {},
        "spans": replay.trace.spans if replay.trace is not None else [],
    }
    if failed:
        return report
    speed = probe.factor()
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    per_layer = _per_layer(workload, cells, replay)
    per_layer["bench.speed_factor"] = speed
    for key, values in (
        ("end_to_end", _end_to_end(cells, import_s, rss_mb, speed)),
        ("per_layer", per_layer),
    ):
        report[key] = {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        }
    report["samples"] = {
        "seeds": seeds,
        "digests": [cell.digest for cell in cells],
        "cpu_s": [cell.cpu_s / speed for cell in cells],
        "rounds": [cell.rounds for cell in cells],
        "traffic_bytes": [cell.traffic_bytes for cell in cells],
        "node_rounds_per_s": [
            speed * cell.nodes * cell.rounds / cell.cpu_s for cell in cells
        ],
        "setup_s": [(import_s + cell.setup_s) / speed for cell in cells],
    }
    report["quartiles"] = {
        name: _quartiles(report["samples"][name])
        for name in ("cpu_s", "rounds", "traffic_bytes", "node_rounds_per_s", "setup_s")
    }
    return report
