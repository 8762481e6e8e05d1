"""The metric catalogue: every name the benchmark prints, with its unit.

``BENCHMARK.json`` repeats these lists (``bench/tests`` keeps the two in
step). End-to-end metrics are what a user of the system sees and carry a
regression bound; per-layer metrics attribute the cost and carry none.
A per-layer metric that does not exist on a workload (``uo2.busy_s`` on
``wire_grid``) is printed as 0 there.
"""

from __future__ import annotations

from typing import List, Tuple

#: Layer keys of the assembly runtime (Figure 1), in stack order.
ROR_LAYERS = ("peer_sampling", "uo1", "uo2", "core", "port_selection", "port_connection")
#: Layer keys of the elementary stack (``wire_grid``, ``scale_ring``).
ELEMENTARY_LAYERS = ("peer_sampling", "overlay")
LAYERS = ROR_LAYERS + ("overlay",)
#: Layers the convergence tracker reports a first-converged round for.
TRACKED_LAYERS = ("core", "uo1", "uo2", "port_selection", "port_connection")

#: (name, unit, better, bound). ``cpu_s``, ``rounds`` and ``traffic_bytes``
#: run to convergence, whose round count is seed-driven, so their bound is
#: the widest the driver admits; ``node_rounds_per_s`` divides the round
#: count out and holds the tighter bound on speed.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("cpu_s", "s", "lower", 0.25),
    ("rounds", "rounds", "lower", 0.25),
    ("traffic_bytes", "bytes", "lower", 0.25),
    ("node_rounds_per_s", "1/s", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]


#: End-to-end metrics that are counts made by the program and repeat exactly
#: for a seed: ``compare`` pairs cells by seed and treats any increase as worse.
EXACT_FOR_A_SEED = ("rounds", "traffic_bytes")


def _per_layer() -> List[Tuple[str, str, str]]:
    out: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        out += [
            (f"{layer}.busy_s", "s", "lower"),
            (f"{layer}.exchanges", "count", "lower"),
            (f"{layer}.descriptors_received", "count", "lower"),
            (f"{layer}.bytes", "bytes", "lower"),
            (f"{layer}.useful_descriptor_ratio", "ratio", "higher"),
        ]
    out += [(f"{layer}.converged_round", "rounds", "lower") for layer in TRACKED_LAYERS]
    out += [
        ("engine.self_s", "s", "lower"),
        ("engine.round_ms_p50", "ms", "lower"),
        ("engine.round_ms_max", "ms", "lower"),
        ("engine.wall_s", "s", "lower"),
        ("convergence.observe_s", "s", "lower"),
        ("dsl.compile_s", "s", "lower"),
        ("dsl.source_bytes", "bytes", "lower"),
        ("deploy.install_s", "s", "lower"),
        ("repair.rebalance_s", "s", "lower"),
        ("repair.victims", "count", "lower"),
        ("repair.dead_purged", "count", "lower"),
        ("repair.role_changes", "count", "lower"),
        ("obs.counter_increments", "count", "lower"),
        ("obs.events", "count", "lower"),
        ("obs.flow_deliveries", "count", "lower"),
        ("wire.codec_s", "s", "lower"),
        ("wire.frames", "count", "lower"),
        ("wire.bytes", "bytes", "lower"),
        ("wire.us_per_frame", "us", "lower"),
        ("wire.bytes_per_frame", "bytes", "lower"),
        ("shard.request_s", "s", "lower"),
        ("shard.respond_s", "s", "lower"),
        ("shard.absorb_s", "s", "lower"),
        ("shard.barrier_s", "s", "lower"),
        ("shard.spinup_s", "s", "lower"),
        ("shard.converged_check_s", "s", "lower"),
        ("shard.parent_cpu_s", "s", "lower"),
        ("shard.worker_cpu_s", "s", "lower"),
        ("shard.worker_peak_rss_mb", "MB", "lower"),
        ("shard.messages", "count", "lower"),
        ("bench.speed_factor", "ratio", "lower"),
        ("bench.trace_overhead_fraction", "ratio", "lower"),
        ("bench.trace_residual_fraction", "ratio", "lower"),
    ]
    return out


#: (name, unit, better).
PER_LAYER: List[Tuple[str, str, str]] = _per_layer()
