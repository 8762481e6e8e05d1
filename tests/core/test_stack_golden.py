"""Golden record of the six-layer stack — digests, rounds, traffic, telemetry.

The literals below were produced by the tree *before* the gossip layers
were folded onto the one ``GossipProtocol`` skeleton; they pin everything
that refactor must not move: the overlay digest, per-layer rounds to
converge, per-layer message and byte counts, and — on the traced case —
the full counter table and the flow-delivery count. The four scenarios
cover the plain path, an all-pairs ``LinkQuality(loss=0.2)`` rule on the
fault plane, T-Man as the core protocol, and purge/tombstone/adopt after a
failure wave.

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

Re-pinned a fourth time: a node that believes it manages a linked port
gossips its bindings across that link every round, port selection adopts the
valid managers its sibling UO1 / core views already name, and a received
belief naming a reassigned node is refused. Port selection now takes 2 rounds
in all six non-repair cases (was 3-4) and 1 after a repair (was 2-3), port
connection 2-3 (was 3-5): the slowest layer summed over the eight cases
33 -> 24, and it is UO1 or the core in every case. The UO1 / UO2 / core
rounds of the six non-repair cases did not move — the port layers draw from
their own streams and only read their siblings. Both repair cases start from
a shorter set-up run, hence a different state (core 2 -> 1 in one, UO1 2 -> 3
in the other), and every message / byte total shrinks with the run length;
``("loss", 1)`` runs its 4 rounds as before, so its digest and non-port
totals are the old ones, and its port-layer bytes rise because the tables
fill earlier. The traced counters follow the same shorter run (224 -> 168
exchanges a layer), and UO2, whose buckets differ after the shorter set-up,
finds 3 dead contacts to purge where it found none.

Re-pinned a fifth time: where a UO1 view can list the whole component (these
rings of 8 against a view of 10) the core hands UO1 what its exchanges bring
in and UO2 ships a partner every contact it holds in the partner's component.
UO1 moved: 3 -> 2 rounds in both ``plain`` cases and 3 -> 1 in
``("repair", 7)``, whose set-up run is a round shorter too. The core moved
in two cases, both the wrong way, through trajectory rather than rule:
``("repair", 1)`` 1 -> 2 from its different start state, and ``("loss", 1)``
4 -> 6, the one case of the eight that got slower (over loss seeds 1-20 the
slowest layer's mean goes 3.70 -> 3.15 and the core's 2.75 -> 2.85).
``("loss", 7)`` keeps every round count and moves bytes only. UO2 and both
port layers keep their rounds in all eight. The ``tman`` cases keep digest,
rounds and five layers' traffic to the byte: T-Man reads no candidate layer
and feeds none, and what UO2 adds (+576 B) changes no UO1 view. Slowest
layer summed over the eight cases 24 -> 23. The traced counters follow the
shorter run (168 -> 112 exchanges a layer, 2 254 -> 1 306 deliveries). The
sampler-regime cases below were pinned on the parent and did not move.

Re-pinned a sixth time, the two repair cases only: a rebalance keeps every
survivor in its component where the new quota allows (``roles.cut``), so the
re-converging stack starts from whole components instead of a fresh
contiguous cut. The six other cases never rebalance and did not move.
``("repair", 7)`` keeps every round count. ``("repair", 1)`` moves two
layers: the core 2 -> 1, and port selection 1 -> 2, because ring3's east
port (rank 4 of 6) is now held by node 15, a newcomer from ring1 dealt to
the tail ranks behind the four kept members, whom ring3's views do not list
yet. The
slowest layer of each case is unchanged (2 and 2). Bytes: ``("repair", 1)``
core 32 408 -> 32 192, UO1 23 896 -> 23 780, UO2 38 816 -> 38 912, port
selection 13 328 -> 13 064, port connection 16 568 -> 16 424;
``("repair", 7)`` core 32 384 -> 32 432, UO1 23 824 -> 23 724, port
connection 16 544 -> 16 424. Traced counters of ``("repair", 7)``: UO2
purges 5 -> 3 dead contacts, UO1 receives 734 -> 728 descriptors, the core
1 200 -> 1 202, port connection 540 -> 535; deliveries 1 306 -> 1 313.

Re-pinned a seventh time, the two ``loss`` cases only: the engine's loss
coin (a lost turn drawn from a ``("loss", layer, node)`` stream before the
partner rule) is gone, and the case is now one all-pairs
``LinkQuality(loss=0.2)`` rule whose coin is drawn at the ``deliverable``
gate, after the partner rule. A refused exchange costs the turn and forgets
the partner only if the transport calls it unreachable, which a lossy link
never does. Different coins, so every literal of both cases moved; the
slowest layer went 6 -> 3 (``("loss", 1)``: core 6 -> 2, UO1 3 -> 2, port
connection 2 -> 3) and 3 -> 3 (``("loss", 7)``: core 3 -> 2, port
connection 3 -> 2), and the shorter ``("loss", 1)`` run halves its traffic
(peer sampling 63 232 -> 30 784 B). The six other cases draw no loss coin
and did not move.

Re-pinned an eighth time: a Vicinity or T-Man reply skips every id its
request shipped, so in these rings of 8 a reply often has fewer than
``gossip_size`` candidates left, and core bytes fall 28-33 % in every case
(``("plain", 7)`` 19 424 -> 13 664 B; traced ``("repair", 7)`` receives
1 202 -> 772 core descriptors). No core round count moved in the eight
cases. Three digests moved, ``("plain", 1)``, ``("loss", 7)`` and
``("repair", 1)``: what the core hands UO1 changed, so UO1, UO2 and the port
layers shift by a few dozen bytes each (``("loss", 1)`` too, UO1 only, with
its digest kept), and ``("loss", 7)`` converges a round sooner (UO1 3 -> 2),
so all its traffic falls by a third. The other four cases keep their digest,
rounds and every non-core byte. In the sampler regime (rings of 20) the core is a round
*later* on both pinned seeds (3 -> 4, 2 -> 3): one ring adjacency is found
in round 3 or 4 instead of 2 or 3. Over seeds 1-30 of the same assembly
the core's mean goes 3.27 -> 3.20 and the slowest layer's 3.33 -> 3.20, so
these are two unlucky seeds, not the rule's trend. Traced counters:
UO2 ``descriptor_churn`` 152 -> 151, deliveries 1 313 -> 1 315.
"""

from __future__ import annotations

import random

import pytest

from repro.core import Runtime, RuntimeConfig
from repro.core.convergence import (
    port_connection_converged,
    port_selection_converged,
    uo1_converged,
)
from repro.core.layers import (
    LAYER_PORT_CONNECTION,
    LAYER_PORT_SELECTION,
    LAYER_UO1,
    RUNTIME_LAYERS,
)
from repro.core.layers.port_connection import DEFAULT_BINDING_TTL
from repro.experiments.topologies import ring_of_rings
from repro.faults.transports import LinkQuality
from repro.faults.zones import ZoneMap
from repro.heal.scenarios import standard_deployment
from repro.obs.collector import Collector
from repro.obs.flow import FlowTracer
from repro.perf.digest import overlay_digest

N_NODES = 32
MAX_ROUNDS = 120

CONFIGS = {
    "plain": None,
    "loss": None,
    "tman": RuntimeConfig(core_flavor="tman"),
    "repair": None,
}
#: What the ``loss`` case loses: a fifth of the exchanges of every link.
LOSS = LinkQuality(loss=0.2)


def converge(scenario: str, seed: int, collector=None):
    """Run one scenario to convergence; return the deployment, the last
    report and the rounds executed since deployment."""
    deployment = standard_deployment(
        N_NODES, seed, config=CONFIGS[scenario], collector=collector
    )
    if scenario == "loss":
        deployment.install_faults(ZoneMap(["all"])).set_link("all", "all", LOSS)
    report = deployment.run_until_converged(MAX_ROUNDS)
    executed = report.executed
    if scenario == "repair":
        pool = sorted(deployment.network.alive_ids())
        for node_id in random.Random(seed).sample(pool, len(pool) // 4):
            deployment.network.kill(node_id)
        deployment.rebalance()
        deployment.tracker.reset()
        report = deployment.run_until_converged(MAX_ROUNDS)
        executed += report.executed
    assert report.converged, report.rounds
    return deployment, report, executed


def record(deployment, report):
    """(digest, rounds-to-converge, {layer: (msgs, bytes)}) of a run."""
    transport = deployment.transport
    traffic = {
        layer: (transport.total_messages(layer), transport.total_bytes(layer))
        for layer in RUNTIME_LAYERS
    }
    return overlay_digest(deployment.network, RUNTIME_LAYERS), report.rounds, traffic


def observe(scenario: str, seed: int, collector=None):
    """Run one scenario to convergence and record it."""
    deployment, report, _ = converge(scenario, seed, collector)
    return record(deployment, report)


GOLDEN = {
    ("plain", 1): (
        "8c12e0c0d45b19cd03fb01ee7be385e7f8c438e10af697ceb2b65e857aa9b43a",
        {"core": 2, "uo1": 2, "uo2": 1, "port_selection": 2, "port_connection": 2},
        {
            "peer_sampling": (128, 26624),
            "uo1": (128, 13280),
            "uo2": (128, 21656),
            "core": (128, 13664),
            "port_selection": (128, 7496),
            "port_connection": (128, 9392),
        },
    ),
    ("plain", 7): (
        "b9bbec069c7d37565068998eff5ca81d77a48575bee08eef30082c065b1e6de5",
        {"core": 2, "uo1": 2, "uo2": 1, "port_selection": 2, "port_connection": 2},
        {
            "peer_sampling": (128, 26624),
            "uo1": (128, 13232),
            "uo2": (128, 21152),
            "core": (128, 13664),
            "port_selection": (128, 7304),
            "port_connection": (128, 9344),
        },
    ),
    ("loss", 1): (
        "75cfeaa71cc8d9bc7c68ab23285997e5b4e8cee90ec21ac93ca613a708ff11ed",
        {"core": 2, "uo1": 2, "uo2": 1, "port_selection": 2, "port_connection": 3},
        {
            "peer_sampling": (148, 30784),
            "uo1": (156, 16176),
            "uo2": (160, 27976),
            "core": (156, 16776),
            "port_selection": (154, 9184),
            "port_connection": (146, 11024),
        },
    ),
    ("loss", 7): (
        "160777e73fe34d3e63e7b69d338cccd368581ba542ffa8187857415c29b8b47e",
        {"core": 2, "uo1": 2, "uo2": 1, "port_selection": 2, "port_connection": 2},
        {
            "peer_sampling": (98, 20384),
            "uo1": (100, 10208),
            "uo2": (112, 18592),
            "core": (116, 12392),
            "port_selection": (98, 5240),
            "port_connection": (96, 6624),
        },
    ),
    ("tman", 1): (
        "d46b80fdc150118ad82991dcd66c1696f5e2c7f22514c56d3d25a97e2959d699",
        {"core": 2, "uo1": 3, "uo2": 1, "port_selection": 2, "port_connection": 2},
        {
            "peer_sampling": (192, 39936),
            "uo1": (192, 20220),
            "uo2": (192, 33504),
            "core": (192, 20808),
            "port_selection": (192, 11592),
            "port_connection": (192, 15960),
        },
    ),
    ("tman", 7): (
        "c7166d34226fa5ea4e27f8c8785d95d82cd3bbff0dbcc9f51d8cb37891465e2e",
        {"core": 3, "uo1": 3, "uo2": 1, "port_selection": 2, "port_connection": 2},
        {
            "peer_sampling": (192, 39936),
            "uo1": (192, 19964),
            "uo2": (192, 33480),
            "core": (192, 20640),
            "port_selection": (192, 11448),
            "port_connection": (192, 15912),
        },
    ),
    ("repair", 1): (
        "4aacbb3d78f74a79548be9fe00b90e7134afb0c4aaf28e15893f7e77028b5d2e",
        {"core": 1, "uo1": 2, "uo2": 1, "port_selection": 2, "port_connection": 2},
        {
            "peer_sampling": (224, 46592),
            "uo1": (224, 23720),
            "uo2": (224, 39080),
            "core": (224, 21968),
            "port_selection": (224, 13112),
            "port_connection": (224, 16448),
        },
    ),
    ("repair", 7): (
        "6c6ce005e5258a9b149cf93ff54b04e35b36382d4c218021eacf851bf7a20bad",
        {"core": 1, "uo1": 1, "uo2": 1, "port_selection": 1, "port_connection": 2},
        {
            "peer_sampling": (224, 46592),
            "uo1": (224, 23724),
            "uo2": (224, 38528),
            "core": (224, 22112),
            "port_selection": (224, 12992),
            "port_connection": (224, 16424),
        },
    ),
}


@pytest.mark.parametrize("scenario,seed", sorted(GOLDEN))
def test_stack_reproduces_golden(scenario, seed):
    assert observe(scenario, seed) == GOLDEN[scenario, seed]


SAMPLER_ROUNDS = 10


def observe_sampler(seed: int):
    """Three rings of 20: every component outgrows UO1's view (10), so UO1
    is a sampler there and not a member list. Run to convergence and on to
    round ``SAMPLER_ROUNDS``, so the record covers steady-state gossip too."""
    deployment = Runtime(ring_of_rings(n_rings=3, ring_size=20), seed=seed).deploy(60)
    assert deployment.config.uo1.view_size < 20 - 1
    report = deployment.run_until_converged(MAX_ROUNDS)
    assert report.converged, report.rounds
    deployment.run(SAMPLER_ROUNDS - report.executed)
    return record(deployment, report)


SAMPLER_GOLDEN = {
    1: (
        "83ab2344cd5a06251b6d9638c31697583ad5f61370ebc640784f95178662870d",
        {"core": 4, "uo1": 2, "uo2": 1, "port_selection": 2, "port_connection": 2},
        {
            "peer_sampling": (1200, 249600),
            "uo1": (1200, 180856),
            "uo2": (1200, 151872),
            "core": (1200, 190968),
            "port_selection": (1200, 74208),
            "port_connection": (1200, 121944),
        },
    ),
    7: (
        "ffb53478096eea56e1fbc5e724b95f2fc689dda970e33c353b2f4e12133fd5b3",
        {"core": 3, "uo1": 3, "uo2": 1, "port_selection": 2, "port_connection": 2},
        {
            "peer_sampling": (1200, 249600),
            "uo1": (1200, 180192),
            "uo2": (1200, 151488),
            "core": (1200, 190560),
            "port_selection": (1200, 74280),
            "port_connection": (1200, 121992),
        },
    ),
}


@pytest.mark.parametrize("seed", sorted(SAMPLER_GOLDEN))
def test_sampler_regime_reproduces_golden(seed):
    """Components too large for a UO1 view to list: what is done for the
    small ones (see the module docstring's re-pins) must not reach here."""
    assert observe_sampler(seed) == SAMPLER_GOLDEN[seed]


def judged(deployment):
    """The arguments every legality predicate takes, as of right now."""
    return deployment.network, deployment.role_map, deployment.assembly


def port_state(deployment):
    """What closure says must stop moving once the port layers are legal:
    every live node's manager belief per port, and each link's two remote
    bindings as the oracle managers hold them."""
    network, role_map = deployment.network, deployment.role_map
    assembly = deployment.assembly
    beliefs, oracle = {}, {}
    for name, spec in assembly.components.items():
        members = [m for m in role_map.members(name) if network.is_alive(m[0])]
        for port in spec.ports:
            oracle[name, port.name] = port.selector.choose(members)
            for node_id, _ in members:
                selection = network.node(node_id).protocol(LAYER_PORT_SELECTION)
                beliefs[node_id, port.name] = selection.manager_of(port.name)
    bindings = {}
    for link in assembly.links:
        for here, there in ((link.a, link.b), (link.b, link.a)):
            manager = oracle[here.component, here.port]
            connection = network.node(manager).protocol(LAYER_PORT_CONNECTION)
            bindings[here, there] = connection.binding_for(there)
    return beliefs, bindings


@pytest.mark.parametrize("scenario", ["plain", "repair"])
@pytest.mark.parametrize("seed", [1, 7])
def test_port_layers_are_closed(scenario, seed):
    """Closure (Berns): once legal, every fault-free round stays legal — no
    manager flaps between candidates, no realized link lapses. Run for three
    times the rounds convergence took, and past the binding TTL: a binding
    nobody refreshed would expire inside the window."""
    deployment, _, executed = converge(scenario, seed)
    settled = port_state(deployment)
    assert None not in settled[0].values() and None not in settled[1].values()
    for _ in range(max(3 * executed, DEFAULT_BINDING_TTL + 2)):
        deployment.run(1)
        assert port_state(deployment) == settled
        assert port_selection_converged(*judged(deployment))
        assert port_connection_converged(*judged(deployment))


def uo1_state(deployment):
    """Per live node: the co-members its UO1 view misses, and the ids it
    holds that are not live co-members (the dead and the reassigned)."""
    network, role_map = deployment.network, deployment.role_map
    missing, stale = {}, {}
    for name in deployment.assembly.components:
        live = {n for n, _ in role_map.members(name) if network.is_alive(n)}
        for node_id in live:
            held = set(network.node(node_id).protocol(LAYER_UO1).neighbors())
            missing[node_id] = live - {node_id} - held
            stale[node_id] = held - live
    return missing, stale


@pytest.mark.parametrize("scenario", ["plain", "repair"])
@pytest.mark.parametrize("seed", [1, 7])
def test_uo1_is_closed(scenario, seed):
    """Closure for the member list: for three times the rounds convergence
    took, every live node's UO1 view names every live co-member, and the
    only motion left is departed ids draining — none enters, and between
    two rounds in which none left, the layer's digest is the same (entry
    order included: an id dropped and gossiped straight back would show).

    ``plain`` has no departed ids: view = live co-members, one digest. After
    a repair the dead are purged within a round or two, but a *live* member
    reassigned elsewhere is removed without a tombstone, so co-members
    gossip it back until its descriptor passes the TTL — harmless to
    legality while the view has room (5 members in 10 slots here)."""
    deployment, _, executed = converge(scenario, seed)
    _, stale = uo1_state(deployment)
    digest = overlay_digest(deployment.network, [LAYER_UO1])
    if scenario == "plain":
        assert not any(stale.values())
    for _ in range(3 * executed):
        deployment.run(1)
        missing, now_stale = uo1_state(deployment)
        assert not any(missing.values()), missing
        assert set().union(*now_stale.values()) <= set().union(*stale.values())
        now_digest = overlay_digest(deployment.network, [LAYER_UO1])
        if now_stale == stale:
            assert now_digest == digest
        stale, digest = now_stale, now_digest
        assert uo1_converged(
            *judged(deployment), deployment.tracker.uo1_view_size
        )


TRACED_COUNTERS = {
    ("dead_purged", "peer_sampling"): 12,
    ("dead_purged", "uo1"): 32,
    ("dead_purged", "uo2"): 3,
    ("descriptor_churn", "core"): 344,
    ("descriptor_churn", "peer_sampling"): 703,
    ("descriptor_churn", "port_connection"): 163,
    ("descriptor_churn", "port_selection"): 44,
    ("descriptor_churn", "uo1"): 134,
    ("descriptor_churn", "uo2"): 151,
    ("descriptors_received", "core"): 772,
    ("descriptors_received", "peer_sampling"): 1792,
    ("descriptors_received", "port_connection"): 535,
    ("descriptors_received", "port_selection"): 392,
    ("descriptors_received", "uo1"): 728,
    ("descriptors_received", "uo2"): 1400,
    ("descriptors_sent", "core"): 772,
    ("descriptors_sent", "peer_sampling"): 1792,
    ("descriptors_sent", "port_connection"): 535,
    ("descriptors_sent", "port_selection"): 392,
    ("descriptors_sent", "uo1"): 728,
    ("descriptors_sent", "uo2"): 1400,
    ("exchanges", "core"): 112,
    ("exchanges", "peer_sampling"): 112,
    ("exchanges", "port_connection"): 112,
    ("exchanges", "port_selection"): 112,
    ("exchanges", "uo1"): 112,
    ("exchanges", "uo2"): 112,
    ("node_crashes", ""): 8,
    ("view_replacements", "core"): 224,
    ("view_replacements", "peer_sampling"): 224,
    ("view_replacements", "uo1"): 224,
}
TRACED_DELIVERIES = 1315


def test_traced_repair_reproduces_golden_telemetry():
    """Telemetry cannot move either: every counter and every delivery."""
    collector = Collector(gauge_every=0, flow=FlowTracer())
    assert observe("repair", 7, collector) == GOLDEN["repair", 7]
    assert dict(collector.counters) == TRACED_COUNTERS
    assert collector.flow.deliveries == TRACED_DELIVERIES
