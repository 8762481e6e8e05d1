"""The gossip-exchange contract, one body over all eight layers.

Every layer inherits its active and passive halves from
:class:`~repro.sim.protocol.GossipProtocol`; these tests drive one active
step of each through a recording transport and pin what the committed
digests depend on: a refused gate draws nothing and leaves no trace, a
timed-out reply is treated exactly like a refused gate, and a completed
exchange is ledgered and counted once.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.core import RuntimeConfig
from repro.core.layers import (
    DistantComponentOverlay,
    PortConnection,
    PortSelection,
    SameComponentOverlay,
)
from repro.faults.scenarios import standard_deployment
from repro.gossip.cyclon import Cyclon
from repro.gossip.descriptors import Descriptor
from repro.gossip.peer_sampling import PeerSampling
from repro.gossip.tman import TMan
from repro.gossip.vicinity import Vicinity
from repro.obs.instrument import Instrument
from repro.sim.engine import RoundContext
from repro.sim.transport import Transport

#: class -> (layer it is attached under, runtime config that deploys it).
CASES = {
    PeerSampling: ("peer_sampling", None),
    SameComponentOverlay: ("uo1", None),
    DistantComponentOverlay: ("uo2", None),
    Vicinity: ("core", None),
    TMan: ("core", RuntimeConfig(core_flavor="tman")),
    PortSelection: ("port_selection", None),
    PortConnection: ("port_connection", None),
    Cyclon: ("cyclon", None),
}


class RecordingTransport(Transport):
    """Scripts the seam's two answers and records what the layer did with it."""

    def __init__(self, deliverable=True, answers=True):
        super().__init__()
        self._deliverable = deliverable
        self._answers = answers
        self.stream_at_gate = None
        self.requests = []
        self.recorded = []

    def deliverable(self, ctx, dst, layer=""):
        self.stream_at_gate = ctx.rng().getstate()
        return self._deliverable

    def exchange(self, ctx, dst, request):
        self.requests.append(request)
        if not self._answers:
            return None
        # The partner answers unobserved, so the counts below are the
        # active half's alone.
        return super().exchange(dataclasses.replace(ctx, obs=None), dst, request)

    def record_exchange(self, layer, request_descriptors, response_descriptors):
        self.recorded.append((layer, request_descriptors, response_descriptors))
        return super().record_exchange(layer, request_descriptors, response_descriptors)


class RecordingInstrument(Instrument):
    __slots__ = ("keyed", "named")

    def __init__(self):
        self.keyed = []
        self.named = []

    def count(self, name, value=1, layer=""):
        self.named.append((name, layer, value))

    def count_key(self, key, value=1):
        self.keyed.append((key, value))


def one_step(cls, transport):
    """Warm a seeded deployment up, then run one active step of ``cls``
    on node 0 through ``transport``; returns (protocol, ctx, instrument)."""
    layer, config = CASES[cls]
    deployment = standard_deployment(32, 5, config=config)
    network = deployment.network
    if cls is Cyclon:
        ids = network.alive_ids()
        for node_id in ids:
            shuffle = Cyclon(node_id)
            for other in ids[:6]:
                if other != node_id:
                    shuffle.view.insert(Descriptor(other, age=0))
            network.node(node_id).attach(layer, shuffle)
    deployment.run(1)
    node = network.node(0)
    protocol = node.protocol(layer)
    assert type(protocol) is cls
    obs = RecordingInstrument()
    ctx = RoundContext(
        node=node,
        network=network,
        transport=transport,
        streams=deployment.streams,
        round=1,
        layer=layer,
        obs=obs,
    )
    protocol.step(ctx)
    assert transport.stream_at_gate is not None, "the step never reached the gate"
    return protocol, ctx, obs


def exchange_counts(obs, layer):
    watched = ("exchanges", "descriptors_sent", "descriptors_received")
    assert not [entry for entry in obs.named if entry[0] in watched]
    return [(key[0], value) for key, value in obs.keyed if key[0] in watched and key[1] == layer]


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_refused_gate_draws_nothing_and_records_nothing(cls):
    transport = RecordingTransport(deliverable=False)
    protocol, ctx, obs = one_step(cls, transport)
    assert ctx.rng().getstate() == transport.stream_at_gate
    assert transport.requests == [] and transport.recorded == []
    assert transport.total_messages() == 0
    assert exchange_counts(obs, protocol.layer) == []


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_unanswered_request_is_handled_like_a_refused_gate(cls):
    refused, _, _ = one_step(cls, RecordingTransport(deliverable=False))
    transport = RecordingTransport(answers=False)
    protocol, _, obs = one_step(cls, transport)
    assert len(transport.requests) == 1
    assert transport.recorded == [] and transport.total_messages() == 0
    assert exchange_counts(obs, protocol.layer) == []
    assert protocol.neighbors() == refused.neighbors()


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_completed_exchange_is_ledgered_and_counted_once(cls):
    transport = RecordingTransport()
    protocol, _, obs = one_step(cls, transport)
    (request,) = transport.requests
    assert request.layer == protocol.layer and request.sender == protocol.node_id
    ((layer, sent, received),) = transport.recorded
    assert (layer, sent) == (protocol.layer, len(request.payload))
    assert exchange_counts(obs, protocol.layer) == [
        ("exchanges", 1),
        ("descriptors_sent", sent),
        ("descriptors_received", received),
    ]


def test_the_exchange_is_written_in_exactly_one_module():
    """Structure guard: a layer that grows its own ``step`` shows up here."""
    root = Path(repro.__file__).parent
    exempt = re.compile(r"^(sim/transport\.py|runtime/|faults/)")
    for needle in ("ctx.transport.exchange(", "flow.on_received("):
        modules = sorted(
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            if not exempt.match(path.relative_to(root).as_posix())
            and needle in path.read_text()
        )
        assert modules == ["sim/protocol.py"], (needle, modules)
