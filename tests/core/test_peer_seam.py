"""The peer seam: a gossip layer learns about other nodes from ``ctx.peers``.

Two substitutions of what ``ctx.peers`` is, on a 32-node ring of rings on
the round engine:

- a seam that delegates to the network and logs who asks what reproduces
  the plain run's digest and traffic, and every question of every layer
  file reaches it;
- a seam that calls one live node dead makes every layer that probes it
  purge it (and count ``dead_purged``) or refuse it, while the network
  still calls it alive.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro.core import RuntimeConfig
from repro.core.layers import (
    LAYER_CORE,
    LAYER_PEER_SAMPLING,
    LAYER_PORT_CONNECTION,
    LAYER_PORT_SELECTION,
    LAYER_UO1,
    LAYER_UO2,
    RUNTIME_LAYERS,
)
from repro.core.layers.port_connection import DEFAULT_BINDING_TTL
from repro.heal.scenarios import standard_deployment
from repro.obs.collector import Collector
from repro.perf.digest import overlay_digest
from repro.sim import engine as engine_module

N_NODES = 32
ROUNDS = 8
SRC = os.path.dirname(repro.__file__)

#: (file, question) for every read a gossip layer makes of another node.
QUESTIONS = {
    ("sim/protocol.py", "is_alive"),
    ("sim/protocol.py", "advert"),
    ("gossip/vicinity.py", "profile"),
    ("gossip/tman.py", "is_alive"),
    ("core/layers/uo1.py", "profile"),
    ("core/layers/uo2.py", "is_alive"),
    ("core/layers/uo2.py", "runs"),
    ("core/layers/port_selection.py", "is_alive"),
    ("core/layers/port_selection.py", "profile"),
    ("core/layers/port_connection.py", "is_alive"),
    ("core/layers/port_connection.py", "runs"),
}


class Delegating:
    """Answers every question as ``network`` does, noting in ``asked`` the
    package-relative file each question came from."""

    def __init__(self, network, asked):
        self.network = network
        self.asked = asked

    def _ask(self, question, *args):
        caller = sys._getframe(2).f_code.co_filename
        self.asked.add((os.path.relpath(caller, SRC).replace(os.sep, "/"), question))
        return getattr(self.network, question)(*args)

    def is_alive(self, node_id):
        return self._ask("is_alive", node_id)

    def runs(self, node_id, layer):
        return self._ask("runs", node_id, layer)

    def profile(self, node_id, layer):
        return self._ask("profile", node_id, layer)

    def advert(self, node_id, layer):
        return self._ask("advert", node_id, layer)


def deploy(flavor, collector=None):
    return standard_deployment(
        N_NODES, 7, config=RuntimeConfig(core_flavor=flavor), collector=collector
    )


def run_with(deployment, seam, rounds=ROUNDS):
    """``rounds`` rounds in which every context asks ``seam(network)``."""

    class Seamed(engine_module.RoundContext):
        def __post_init__(self):
            self.peers = seam(self.network)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "RoundContext", Seamed)
        deployment.run(rounds)


def record(deployment):
    transport = deployment.transport
    return overlay_digest(deployment.network, RUNTIME_LAYERS), {
        layer: (transport.total_messages(layer), transport.total_bytes(layer))
        for layer in RUNTIME_LAYERS
    }


@pytest.mark.parametrize("flavor", ["vicinity", "tman"])
def test_a_delegating_seam_changes_nothing_and_hears_every_question(flavor):
    asked = set()
    plain, seamed = deploy(flavor), deploy(flavor)
    plain.run(ROUNDS)
    run_with(seamed, lambda network: Delegating(network, asked))
    assert record(seamed) == record(plain)
    expected = {
        (path, question)
        for path, question in QUESTIONS
        if flavor == "tman" or path != "gossip/tman.py"
    }
    assert asked == expected


def west_manager(deployment):
    """ring0's ``west`` port manager: rank 0 of ring0."""
    for node in deployment.network.nodes():
        profile = node.protocol(LAYER_PORT_SELECTION).profile
        if (profile.component, profile.rank) == ("ring0", 0):
            return node.node_id
    raise AssertionError("ring0 has no rank 0")


def named(deployment, victim):
    """The layers in which some other node names ``victim``: a port
    selection belief, a port connection binding."""
    found = set()
    for node in deployment.network.nodes():
        if node.node_id == victim:
            continue
        selection = node.protocol(LAYER_PORT_SELECTION)
        if any(manager == victim for manager, _ in selection.beliefs.values()):
            found.add(LAYER_PORT_SELECTION)
        connection = node.protocol(LAYER_PORT_CONNECTION)
        if any(manager == victim for manager, _ in connection.bindings.values()):
            found.add(LAYER_PORT_CONNECTION)
    return found


def test_a_seam_that_calls_a_live_node_dead_is_believed_by_every_layer():
    """Settled first on the network itself, then on a seam that calls
    ring0's west manager dead: every layer that keeps views purges it, and
    once the bindings held before have lapsed (they are refused on receipt,
    never purged), no port layer of another node names it."""
    purging = (LAYER_PEER_SAMPLING, LAYER_UO1, LAYER_UO2, LAYER_CORE)
    counts = Collector()
    deployment = deploy("vicinity", counts)
    deployment.run(ROUNDS)
    victim = west_manager(deployment)
    assert all(counts.counter("dead_purged", layer) == 0 for layer in purging)
    assert named(deployment, victim) == {LAYER_PORT_SELECTION, LAYER_PORT_CONNECTION}

    class Shunning(Delegating):
        def is_alive(self, node_id):
            return node_id != victim and self.network.is_alive(node_id)

    run_with(
        deployment,
        lambda network: Shunning(network, set()),
        rounds=DEFAULT_BINDING_TTL + 1,
    )
    assert deployment.network.is_alive(victim)
    assert west_manager(deployment) == victim
    for layer in purging:
        assert counts.counter("dead_purged", layer) > 0, layer
    assert named(deployment, victim) == set()
