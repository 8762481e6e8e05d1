"""Golden record of the six-layer stack — digests, rounds, traffic, telemetry.

The literals below were produced by the tree *before* the gossip layers
were folded onto the one ``GossipProtocol`` skeleton; they pin everything
that refactor must not move: the overlay digest, per-layer rounds to
converge, per-layer message and byte counts, and — on the traced case —
the full counter table and the flow-delivery count. The four scenarios
cover the plain path, the ``loss_rate`` coin and its stream, T-Man as the
core protocol, and purge/tombstone/adopt after a failure wave.

Re-pinned once since: UO2's offer now starts its round-robin at
``(round * slots + node_id) % K`` instead of always at the alphabetically
first component (which never gossiped components past the message budget).
These 32-node assemblies know fewer components than a message has slots, so
every contact still ships every round and only the *order* inside a UO2
buffer moved — hence the eight overlay digests changed while every rounds,
message, byte, counter and delivery literal stayed what it was.

Re-pinned a second time: UO2 hands the own-component descriptors it receives
to UO1 instead of discarding them, addresses its offer to its partner (one
slot for the partner's component, never the partner itself, a reply skipping
what the request shipped), and an empty core view bootstraps from UO1. That
is a different — shorter — trajectory, so every literal moved: rounds to
converge summed over the eight cases (slowest layer of each) 36 -> 32, no
layer of any case slower by more than one round, UO2 bytes down 7 % (a buffer
to a foreign partner no longer carries the partner's own descriptor back).
"""

from __future__ import annotations

import random

import pytest

from repro.core import RuntimeConfig
from repro.core.layers import RUNTIME_LAYERS
from repro.faults.scenarios import standard_deployment
from repro.obs.collector import Collector
from repro.obs.flow import FlowTracer
from repro.perf.digest import overlay_digest

N_NODES = 32
MAX_ROUNDS = 120

CONFIGS = {
    "plain": None,
    "loss": RuntimeConfig(loss_rate=0.2),
    "tman": RuntimeConfig(core_flavor="tman"),
    "repair": None,
}


def observe(scenario: str, seed: int, collector=None):
    """Run one scenario; return (digest, rounds-to-converge, {layer: (msgs, bytes)})."""
    deployment = standard_deployment(
        N_NODES, seed, config=CONFIGS[scenario], collector=collector
    )
    report = deployment.run_until_converged(MAX_ROUNDS)
    if scenario == "repair":
        pool = sorted(deployment.network.alive_ids())
        for node_id in random.Random(seed).sample(pool, len(pool) // 4):
            deployment.network.kill(node_id)
        deployment.rebalance()
        deployment.tracker.reset()
        report = deployment.run_until_converged(MAX_ROUNDS)
    assert report.converged, report.rounds
    transport = deployment.transport
    traffic = {
        layer: (transport.total_messages(layer), transport.total_bytes(layer))
        for layer in RUNTIME_LAYERS
    }
    return overlay_digest(deployment.network, RUNTIME_LAYERS), report.rounds, traffic


GOLDEN = {
    ("plain", 1): (
        "1020543916c35cfbffc9dfbea9bb678de2dd7827dfe51dd810f5b6450b15abcd",
        {"core": 2, "uo1": 4, "uo2": 1, "port_selection": 3, "port_connection": 3},
        {
            "peer_sampling": (256, 53248),
            "uo1": (256, 33544),
            "uo2": (256, 42160),
            "core": (256, 39880),
            "port_selection": (256, 12880),
            "port_connection": (256, 20008),
        },
    ),
    ("plain", 7): (
        "4562cf2b9f919cdafab26c90aca50d2b3934f6eae22ecb554276381532589199",
        {"core": 2, "uo1": 4, "uo2": 1, "port_selection": 4, "port_connection": 3},
        {
            "peer_sampling": (256, 53248),
            "uo1": (256, 33088),
            "uo2": (256, 42160),
            "core": (256, 39784),
            "port_selection": (256, 12880),
            "port_connection": (256, 20320),
        },
    ),
    ("loss", 1): (
        "7980511db99376b3266c40201f09f4eefb9423414f97769b2b8a51a6739478b7",
        {"core": 4, "uo1": 4, "uo2": 1, "port_selection": 4, "port_connection": 4},
        {
            "peer_sampling": (208, 43264),
            "uo1": (214, 28024),
            "uo2": (218, 35792),
            "core": (190, 28960),
            "port_selection": (200, 9008),
            "port_connection": (214, 15472),
        },
    ),
    ("loss", 7): (
        "3356de13e92a14f784b624e3d6610445087520e7dc16b78f2b5902ccd3c791eb",
        {"core": 3, "uo1": 4, "uo2": 1, "port_selection": 4, "port_connection": 4},
        {
            "peer_sampling": (204, 42432),
            "uo1": (210, 27216),
            "uo2": (218, 35744),
            "core": (206, 31592),
            "port_selection": (202, 9520),
            "port_connection": (200, 13952),
        },
    ),
    ("tman", 1): (
        "1020543916c35cfbffc9dfbea9bb678de2dd7827dfe51dd810f5b6450b15abcd",
        {"core": 2, "uo1": 4, "uo2": 1, "port_selection": 3, "port_connection": 3},
        {
            "peer_sampling": (256, 53248),
            "uo1": (256, 33544),
            "uo2": (256, 42160),
            "core": (256, 38920),
            "port_selection": (256, 12880),
            "port_connection": (256, 20008),
        },
    ),
    ("tman", 7): (
        "4562cf2b9f919cdafab26c90aca50d2b3934f6eae22ecb554276381532589199",
        {"core": 3, "uo1": 4, "uo2": 1, "port_selection": 4, "port_connection": 3},
        {
            "peer_sampling": (256, 53248),
            "uo1": (256, 33088),
            "uo2": (256, 42160),
            "core": (256, 38512),
            "port_selection": (256, 12880),
            "port_connection": (256, 20320),
        },
    ),
    ("repair", 1): (
        "3a25945000490072e6b15cb80f5f2aada016c5d3c0a24473bf0becc8a03053f0",
        {"core": 1, "uo1": 3, "uo2": 1, "port_selection": 2, "port_connection": 5},
        {
            "peer_sampling": (496, 103168),
            "uo1": (496, 66136),
            "uo2": (496, 83896),
            "core": (496, 72304),
            "port_selection": (496, 26080),
            "port_connection": (496, 40984),
        },
    ),
    ("repair", 7): (
        "15214754c76c0731c5a403f74687af56a47544cc906836bc674411c767d73522",
        {"core": 1, "uo1": 2, "uo2": 1, "port_selection": 2, "port_connection": 3},
        {
            "peer_sampling": (400, 83200),
            "uo1": (400, 52648),
            "uo2": (400, 67456),
            "core": (400, 59248),
            "port_selection": (400, 20608),
            "port_connection": (400, 31240),
        },
    ),
}


@pytest.mark.parametrize("scenario,seed", sorted(GOLDEN))
def test_stack_reproduces_golden(scenario, seed):
    assert observe(scenario, seed) == GOLDEN[scenario, seed]


TRACED_COUNTERS = {
    ("dead_purged", "peer_sampling"): 38,
    ("dead_purged", "uo1"): 42,
    ("descriptor_churn", "core"): 344,
    ("descriptor_churn", "peer_sampling"): 1270,
    ("descriptor_churn", "uo1"): 146,
    ("descriptor_churn", "uo2"): 138,
    ("descriptors_received", "core"): 2202,
    ("descriptors_received", "peer_sampling"): 3200,
    ("descriptors_received", "port_connection"): 1035,
    ("descriptors_received", "port_selection"): 592,
    ("descriptors_received", "uo1"): 1927,
    ("descriptors_received", "uo2"): 2544,
    ("descriptors_sent", "core"): 2202,
    ("descriptors_sent", "peer_sampling"): 3200,
    ("descriptors_sent", "port_connection"): 1035,
    ("descriptors_sent", "port_selection"): 592,
    ("descriptors_sent", "uo1"): 1927,
    ("descriptors_sent", "uo2"): 2544,
    ("exchanges", "core"): 200,
    ("exchanges", "peer_sampling"): 200,
    ("exchanges", "port_connection"): 200,
    ("exchanges", "port_selection"): 200,
    ("exchanges", "uo1"): 200,
    ("exchanges", "uo2"): 200,
    ("node_crashes", ""): 8,
    ("view_replacements", "core"): 400,
    ("view_replacements", "peer_sampling"): 400,
    ("view_replacements", "uo1"): 400,
}
TRACED_DELIVERIES = 2929


def test_traced_repair_reproduces_golden_telemetry():
    """Telemetry cannot move either: every counter and every delivery."""
    collector = Collector(gauge_every=0, flow=FlowTracer())
    assert observe("repair", 7, collector) == GOLDEN["repair", 7]
    assert dict(collector.counters) == TRACED_COUNTERS
    assert collector.flow.deliveries == TRACED_DELIVERIES
