"""Golden record of the six-layer stack — digests, rounds, traffic, telemetry.

The literals below were produced by the tree *before* the gossip layers
were folded onto the one ``GossipProtocol`` skeleton; they pin everything
that refactor must not move: the overlay digest, per-layer rounds to
converge, per-layer message and byte counts, and — on the traced case —
the full counter table and the flow-delivery count. The four scenarios
cover the plain path, the ``loss_rate`` coin and its stream, T-Man as the
core protocol, and purge/tombstone/adopt after a failure wave.
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
        "3f6b067d24fa40ee7befa41cefebf416884c4d78bd2c3546f88e72673300fe48",
        {"core": 2, "uo1": 4, "uo2": 1, "port_selection": 3, "port_connection": 3},
        {
            "peer_sampling": (256, 53248),
            "uo1": (256, 33376),
            "uo2": (256, 45232),
            "core": (256, 39760),
            "port_selection": (256, 12448),
            "port_connection": (256, 20056),
        },
    ),
    ("plain", 7): (
        "055587d58e9b717fa04268977f84455d8a970ee080a389fd90c5d380ff320822",
        {"core": 2, "uo1": 4, "uo2": 1, "port_selection": 3, "port_connection": 5},
        {
            "peer_sampling": (320, 66560),
            "uo1": (320, 41720),
            "uo2": (320, 56696),
            "core": (320, 50024),
            "port_selection": (320, 17168),
            "port_connection": (320, 27368),
        },
    ),
    ("loss", 1): (
        "65120ec4d0cb27a493736be36e68195f96477f718dcda61ad39f2f5a1c99ca29",
        {"core": 4, "uo1": 4, "uo2": 1, "port_selection": 3, "port_connection": 4},
        {
            "peer_sampling": (208, 43264),
            "uo1": (214, 27832),
            "uo2": (218, 38504),
            "core": (190, 28912),
            "port_selection": (200, 9248),
            "port_connection": (214, 15328),
        },
    ),
    ("loss", 7): (
        "efc6d9a68c6877b6dc80609e0df4860edb78535b349a1c5d95d0e811b5573660",
        {"core": 3, "uo1": 4, "uo2": 1, "port_selection": 5, "port_connection": 5},
        {
            "peer_sampling": (242, 50336),
            "uo1": (254, 32744),
            "uo2": (270, 47808),
            "core": (252, 38832),
            "port_selection": (252, 12960),
            "port_connection": (250, 20824),
        },
    ),
    ("tman", 1): (
        "3f6b067d24fa40ee7befa41cefebf416884c4d78bd2c3546f88e72673300fe48",
        {"core": 2, "uo1": 4, "uo2": 1, "port_selection": 3, "port_connection": 3},
        {
            "peer_sampling": (256, 53248),
            "uo1": (256, 33376),
            "uo2": (256, 45232),
            "core": (256, 38920),
            "port_selection": (256, 12448),
            "port_connection": (256, 20056),
        },
    ),
    ("tman", 7): (
        "055587d58e9b717fa04268977f84455d8a970ee080a389fd90c5d380ff320822",
        {"core": 3, "uo1": 4, "uo2": 1, "port_selection": 3, "port_connection": 5},
        {
            "peer_sampling": (320, 66560),
            "uo1": (320, 41720),
            "uo2": (320, 56696),
            "core": (320, 48752),
            "port_selection": (320, 17168),
            "port_connection": (320, 27368),
        },
    ),
    ("repair", 1): (
        "4de37c53186a85418beb5eb555988897b8a05442b44d155b7af68734270c8e2e",
        {"core": 2, "uo1": 3, "uo2": 1, "port_selection": 3, "port_connection": 5},
        {
            "peer_sampling": (496, 103168),
            "uo1": (496, 65968),
            "uo2": (496, 89392),
            "core": (496, 72208),
            "port_selection": (496, 25648),
            "port_connection": (496, 40936),
        },
    ),
    ("repair", 7): (
        "e40c31860eb3566566a03fb9d1b68869a83ebf2dbcdf368f53d2a14f994e7087",
        {"core": 1, "uo1": 3, "uo2": 1, "port_selection": 2, "port_connection": 4},
        {
            "peer_sampling": (512, 106496),
            "uo1": (512, 67808),
            "uo2": (512, 92024),
            "core": (510, 75768),
            "port_selection": (512, 27392),
            "port_connection": (512, 43376),
        },
    ),
}


@pytest.mark.parametrize("scenario,seed", sorted(GOLDEN))
def test_stack_reproduces_golden(scenario, seed):
    assert observe(scenario, seed) == GOLDEN[scenario, seed]


TRACED_COUNTERS = {
    ("dead_purged", "peer_sampling"): 46,
    ("dead_purged", "uo1"): 47,
    ("descriptor_churn", "core"): 344,
    ("descriptor_churn", "peer_sampling"): 1608,
    ("descriptor_churn", "uo1"): 173,
    ("descriptor_churn", "uo2"): 97,
    ("descriptors_received", "core"): 2817,
    ("descriptors_received", "peer_sampling"): 4096,
    ("descriptors_received", "port_connection"): 1466,
    ("descriptors_received", "port_selection"): 800,
    ("descriptors_received", "uo1"): 2484,
    ("descriptors_received", "uo2"): 3493,
    ("descriptors_sent", "core"): 2817,
    ("descriptors_sent", "peer_sampling"): 4096,
    ("descriptors_sent", "port_connection"): 1466,
    ("descriptors_sent", "port_selection"): 800,
    ("descriptors_sent", "uo1"): 2484,
    ("descriptors_sent", "uo2"): 3493,
    ("exchanges", "core"): 255,
    ("exchanges", "peer_sampling"): 256,
    ("exchanges", "port_connection"): 256,
    ("exchanges", "port_selection"): 256,
    ("exchanges", "uo1"): 256,
    ("exchanges", "uo2"): 256,
    ("node_crashes", ""): 8,
    ("view_replacements", "core"): 510,
    ("view_replacements", "peer_sampling"): 512,
    ("view_replacements", "uo1"): 512,
}
TRACED_DELIVERIES = 4081


def test_traced_repair_reproduces_golden_telemetry():
    """Telemetry cannot move either: every counter and every delivery."""
    collector = Collector(gauge_every=0, flow=FlowTracer())
    assert observe("repair", 7, collector) == GOLDEN["repair", 7]
    assert dict(collector.counters) == TRACED_COUNTERS
    assert collector.flow.deliveries == TRACED_DELIVERIES
