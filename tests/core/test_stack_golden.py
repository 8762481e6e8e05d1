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

Re-pinned a third time: UO1 and UO2 requests carry a have-digest (charged
at 4 B per entry) and the reply fills the gaps, UO2's partner scan purges
dead contacts, and the port layers count ``descriptor_churn`` (two new
counter keys). UO1 converges a round earlier in seven of the eight cases and
its bytes fall 20 % where the round count held; with three foreign
components there is nothing for UO2's digest to save, so it stays at one
round and pays the digest (+3 %). Port connection — whose trajectory, not
rule, moved — is two rounds later in two cases and two earlier in one: the
slowest layer summed over the cases 32 -> 33 at this size, against 5.69 ->
4.63 rounds at 20 components (``assembly_ror``).
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
        "205b1e6d9597672b9c134ab6950a29a0f02b96bfc7889ee1bde682395b451c00",
        {"core": 2, "uo1": 3, "uo2": 1, "port_selection": 3, "port_connection": 5},
        {
            "peer_sampling": (320, 66560),
            "uo1": (320, 33276),
            "uo2": (320, 55712),
            "core": (320, 50168),
            "port_selection": (320, 16784),
            "port_connection": (320, 26888),
        },
    ),
    ("plain", 7): (
        "17cb91db66cb906eff087c1c9092c09c5bbf514038b0633a21ae21c9970d246d",
        {"core": 2, "uo1": 3, "uo2": 1, "port_selection": 4, "port_connection": 3},
        {
            "peer_sampling": (256, 53248),
            "uo1": (256, 26492),
            "uo2": (256, 43528),
            "core": (256, 39832),
            "port_selection": (256, 13168),
            "port_connection": (256, 20680),
        },
    ),
    ("loss", 1): (
        "15453964fe77e1f11860d284fcd0e2c2205181481da5edcaa5f4aef26b549e39",
        {"core": 4, "uo1": 3, "uo2": 1, "port_selection": 4, "port_connection": 4},
        {
            "peer_sampling": (208, 43264),
            "uo1": (214, 22416),
            "uo2": (218, 37100),
            "core": (190, 29032),
            "port_selection": (200, 9056),
            "port_connection": (214, 15304),
        },
    ),
    ("loss", 7): (
        "453cfcdbb99281c371d23948a2d40880728be37524d03d376bfe4d1eec8dbcab",
        {"core": 3, "uo1": 3, "uo2": 1, "port_selection": 4, "port_connection": 4},
        {
            "peer_sampling": (204, 42432),
            "uo1": (210, 21956),
            "uo2": (218, 37052),
            "core": (206, 31616),
            "port_selection": (202, 9616),
            "port_connection": (200, 14480),
        },
    ),
    ("tman", 1): (
        "205b1e6d9597672b9c134ab6950a29a0f02b96bfc7889ee1bde682395b451c00",
        {"core": 2, "uo1": 3, "uo2": 1, "port_selection": 3, "port_connection": 5},
        {
            "peer_sampling": (320, 66560),
            "uo1": (320, 33276),
            "uo2": (320, 55712),
            "core": (320, 49160),
            "port_selection": (320, 16784),
            "port_connection": (320, 26888),
        },
    ),
    ("tman", 7): (
        "17cb91db66cb906eff087c1c9092c09c5bbf514038b0633a21ae21c9970d246d",
        {"core": 3, "uo1": 3, "uo2": 1, "port_selection": 4, "port_connection": 3},
        {
            "peer_sampling": (256, 53248),
            "uo1": (256, 26492),
            "uo2": (256, 43528),
            "core": (256, 38512),
            "port_selection": (256, 13168),
            "port_connection": (256, 20680),
        },
    ),
    ("repair", 1): (
        "837702289dcf44a46c4d6ac9d340c7742821e4390fad445d4810e4809e8f6088",
        {"core": 2, "uo1": 2, "uo2": 1, "port_selection": 3, "port_connection": 3},
        {
            "peer_sampling": (464, 96512),
            "uo1": (464, 49424),
            "uo2": (464, 80672),
            "core": (464, 69560),
            "port_selection": (464, 24128),
            "port_connection": (464, 38408),
        },
    ),
    ("repair", 7): (
        "8555931b58f12f295ce79fa70171dece8e1cb709f414a88913e50924b80c83d6",
        {"core": 1, "uo1": 2, "uo2": 1, "port_selection": 2, "port_connection": 4},
        {
            "peer_sampling": (448, 93184),
            "uo1": (448, 46736),
            "uo2": (448, 77608),
            "core": (448, 65848),
            "port_selection": (448, 23872),
            "port_connection": (448, 36616),
        },
    ),
}


@pytest.mark.parametrize("scenario,seed", sorted(GOLDEN))
def test_stack_reproduces_golden(scenario, seed):
    assert observe(scenario, seed) == GOLDEN[scenario, seed]


TRACED_COUNTERS = {
    ("dead_purged", "peer_sampling"): 47,
    ("dead_purged", "uo1"): 46,
    ("descriptor_churn", "core"): 344,
    ("descriptor_churn", "peer_sampling"): 1415,
    ("descriptor_churn", "port_connection"): 319,
    ("descriptor_churn", "port_selection"): 96,
    ("descriptor_churn", "uo1"): 176,
    ("descriptor_churn", "uo2"): 158,
    ("descriptors_received", "core"): 2445,
    ("descriptors_received", "peer_sampling"): 3584,
    ("descriptors_received", "port_connection"): 1227,
    ("descriptors_received", "port_selection"): 696,
    ("descriptors_received", "uo1"): 1429,
    ("descriptors_received", "uo2"): 2823,
    ("descriptors_sent", "core"): 2445,
    ("descriptors_sent", "peer_sampling"): 3584,
    ("descriptors_sent", "port_connection"): 1227,
    ("descriptors_sent", "port_selection"): 696,
    ("descriptors_sent", "uo1"): 1429,
    ("descriptors_sent", "uo2"): 2823,
    ("exchanges", "core"): 224,
    ("exchanges", "peer_sampling"): 224,
    ("exchanges", "port_connection"): 224,
    ("exchanges", "port_selection"): 224,
    ("exchanges", "uo1"): 224,
    ("exchanges", "uo2"): 224,
    ("node_crashes", ""): 8,
    ("view_replacements", "core"): 448,
    ("view_replacements", "peer_sampling"): 448,
    ("view_replacements", "uo1"): 448,
}
TRACED_DELIVERIES = 3342


def test_traced_repair_reproduces_golden_telemetry():
    """Telemetry cannot move either: every counter and every delivery."""
    collector = Collector(gauge_every=0, flow=FlowTracer())
    assert observe("repair", 7, collector) == GOLDEN["repair", 7]
    assert dict(collector.counters) == TRACED_COUNTERS
    assert collector.flow.deliveries == TRACED_DELIVERIES
