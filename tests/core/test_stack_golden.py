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
        "d1633a3f53fcd0dd29f67dcd27dda85232fdccdb2d97b8aa04cee2c84c244fe5",
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
        "d0d169873eb2739642218ad407b7e154024f65a9c4ed303002f37f20fbcd3cdc",
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
        "a630739bb99c352c767a4cf9ce61df4db5e07b2568272cc9b3ce8d9ac121e2f5",
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
        "9c3e7519bdc3d3866095e878b2de227b296fbe849e8445714acd1f93aad14062",
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
        "d1633a3f53fcd0dd29f67dcd27dda85232fdccdb2d97b8aa04cee2c84c244fe5",
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
        "d0d169873eb2739642218ad407b7e154024f65a9c4ed303002f37f20fbcd3cdc",
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
        "739dc2c4f45366476bd0f2d7e0b8c870b0388addebb356273401d6cba7e495d9",
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
        "de6759a4aca8fdc28268883b044cc3ad0d81bdb26e3f073e7e12f695a032e335",
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
