"""Traced vs untraced live swarms: identical overlays, real telemetry.

The acceptance gate for distributed tracing: attaching a collector with a
flow tracer to every node of a live UDP swarm must not perturb the overlay
the protocol converges to, while the traced run actually records RTT
histograms, trace frames, and Lamport progress.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.collector import Collector
from repro.obs.flow import FlowTracer
from repro.runtime.api import RunnerConfig, make_runner

N_NODES = 3
ROUNDS = 60
INTERVAL = 0.05


def run_live_swarm(collectors=None):
    """Run a three-node in-process UDP swarm; returns (runners_view, ok)."""
    base = dict(
        kind="net", n_nodes=N_NODES, shape="ring", seed=11, round_interval=INTERVAL
    )

    def obs_for(index):
        return None if collectors is None else collectors[index]

    runners = [make_runner(RunnerConfig(node_index=0, **base), obs=obs_for(0))]
    try:
        runners[0].start()
        rendezvous = f"127.0.0.1:{runners[0].port}"
        for index in range(1, N_NODES):
            runners.append(
                make_runner(
                    RunnerConfig(node_index=index, rendezvous=rendezvous, **base),
                    obs=obs_for(index),
                )
            )
        threads = [
            threading.Thread(target=runner.run, args=(ROUNDS,), daemon=True)
            for runner in runners
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=ROUNDS * INTERVAL + 15)
        assert not any(thread.is_alive() for thread in threads)
        adjacency = {runner.node_id: set(runner.neighbors()) for runner in runners}
        converged = runners[0].stack.shape.converged(adjacency, N_NODES)
        wire_stats = [runner.wire_stats() for runner in runners]
        lamports = [runner.endpoint.lamport.read() for runner in runners]
        return adjacency, converged, wire_stats, lamports
    finally:
        for runner in runners:
            runner.close()


@pytest.mark.slow
def test_traced_swarm_matches_untraced_overlay():
    bare_adjacency, bare_converged, bare_stats, _ = run_live_swarm()
    collectors = [
        Collector(gauge_every=0, flow=FlowTracer()) for _ in range(N_NODES)
    ]
    traced_adjacency, traced_converged, traced_stats, lamports = run_live_swarm(
        collectors
    )

    # Ring-3 has a unique converged overlay, so the two independent runs
    # are directly comparable: tracing must not change what the protocol
    # converges to.
    assert bare_converged and traced_converged
    assert traced_adjacency == bare_adjacency

    for stats in bare_stats + traced_stats:
        assert stats["malformed"] == 0

    # ...and the traced run really observed the swarm.
    assert any(
        collector.counter_total("trace_frames") > 0 for collector in collectors
    )
    assert any(
        histogram.count > 0
        for collector in collectors
        for (name, _layer), histogram in collector.histograms.items()
        if name == "gossip_rtt"
    )
    assert any(value > 0 for value in lamports)
    assert any(
        collector.flow.deliveries > 0 for collector in collectors
    )
