"""The gossip-exchange contract, one body over all eight layers.

Every layer inherits its active and passive halves from
:class:`~repro.sim.protocol.GossipProtocol`; these tests drive one active
step of each through a recording transport and pin what the committed
digests depend on: a refused gate draws nothing and leaves no trace, a
timed-out reply is treated exactly like a refused gate, either refusal lets
the partner go only when the transport calls it unreachable (and the port
layers never), and a completed exchange is ledgered and counted once. The
next part pins that the opening half, the partner's passive half and the
closing half — the exchange as the BSP engine schedules it — compose to
exactly ``step()``, and that a closing half merges into whatever the
node's passive half absorbed since the opening half (the BSP engine answers
requests between the two). The last part pins the have-digest of the two
utility overlays: what a request says the requester holds, what the ledger
charges for it, and what the passive half does with it.
"""

from __future__ import annotations

import dataclasses
import random
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.core.layers import (
    DistantComponentOverlay,
    PortConnection,
    PortSelection,
    SameComponentOverlay,
)
from repro.gossip.peer_sampling import PeerSampling
from repro.gossip.tman import TMan
from repro.gossip.vicinity import Vicinity
from repro.gossip.views import PartialView
from repro.heal.scenarios import standard_deployment
from repro.obs.instrument import Instrument
from repro.sim.engine import RoundContext
from repro.sim.node import Node
from repro.sim.transport import ExchangeRequest, Transport

#: class -> (layer it is attached under, core flavour that deploys it).
CASES = {
    PeerSampling: ("peer_sampling", "vicinity"),
    SameComponentOverlay: ("uo1", "vicinity"),
    DistantComponentOverlay: ("uo2", "vicinity"),
    Vicinity: ("core", "vicinity"),
    TMan: ("core", "tman"),
    PortSelection: ("port_selection", "vicinity"),
    PortConnection: ("port_connection", "vicinity"),
}

#: Layers whose refusals cost the turn and nothing else, reachable or not.
PORT_LAYERS = (PortSelection, PortConnection)

#: Every layer, with a refused partner the transport still calls reachable
#: (the plain id) and one it calls unreachable.
REFUSALS = [pytest.param(cls, True, id=cls.__name__) for cls in CASES] + [
    pytest.param(cls, False, id=f"{cls.__name__}-unreachable") for cls in CASES
]


class RecordingTransport(Transport):
    """Scripts the seam's two answers and records what the layer did with it."""

    def __init__(self, deliverable=True, answers=True, reachable=True):
        super().__init__()
        self._deliverable = deliverable
        self._answers = answers
        self._reachable = reachable
        self.stream_at_gate = None
        self.requests = []
        self.replies = []
        self.recorded = []
        #: The partner and the layer's neighbours as the last request left
        #: (or was refused at the gate).
        self.partner = None
        self.held = None

    def _note(self, ctx, dst):
        self.partner = dst
        self.held = list(ctx.node.protocol(ctx.layer).neighbors())

    def deliverable(self, ctx, dst, layer=""):
        self.stream_at_gate = ctx.rng().getstate()
        self._note(ctx, dst)
        return self._deliverable

    def reachable(self, ctx, dst):
        return self._reachable

    def exchange(self, ctx, dst, request):
        self._note(ctx, dst)
        self.requests.append(request)
        if not self._answers:
            return None
        # The partner answers unobserved, so the counts below are the
        # active half's alone.
        reply = super().exchange(dataclasses.replace(ctx, obs=None), dst, request)
        self.replies.append(reply)
        return reply

    def record_exchange(self, layer, request_descriptors, response_descriptors, digest=0):
        self.recorded.append((layer, request_descriptors, response_descriptors, digest))
        return super().record_exchange(
            layer, request_descriptors, response_descriptors, digest
        )


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
    layer, flavor = CASES[cls]
    deployment = standard_deployment(32, 5, core_flavor=flavor)
    network = deployment.network
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


def assert_refusal_rule(cls, protocol, transport, reachable):
    """A refusal lets the partner go only when the transport calls it
    unreachable, and a port layer never lets it go."""
    held, partner = transport.held, transport.partner
    if reachable or cls in PORT_LAYERS:
        assert protocol.neighbors() == held
    else:
        assert partner in held and partner not in protocol.neighbors()


@pytest.mark.parametrize("cls,reachable", REFUSALS)
def test_refused_gate_draws_nothing_and_records_nothing(cls, reachable):
    transport = RecordingTransport(deliverable=False, reachable=reachable)
    protocol, ctx, obs = one_step(cls, transport)
    assert ctx.rng().getstate() == transport.stream_at_gate
    assert transport.requests == [] and transport.recorded == []
    assert transport.total_messages() == 0
    assert exchange_counts(obs, protocol.layer) == []
    assert_refusal_rule(cls, protocol, transport, reachable)


@pytest.mark.parametrize("cls,reachable", REFUSALS)
def test_unanswered_request_is_handled_like_a_refused_gate(cls, reachable):
    refused, _, _ = one_step(
        cls, RecordingTransport(deliverable=False, reachable=reachable)
    )
    transport = RecordingTransport(answers=False, reachable=reachable)
    protocol, _, obs = one_step(cls, transport)
    assert len(transport.requests) == 1
    assert transport.recorded == [] and transport.total_messages() == 0
    assert exchange_counts(obs, protocol.layer) == []
    assert protocol.neighbors() == refused.neighbors()
    assert_refusal_rule(cls, protocol, transport, reachable)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_completed_exchange_is_ledgered_and_counted_once(cls):
    transport = RecordingTransport()
    protocol, _, obs = one_step(cls, transport)
    (request,) = transport.requests
    assert request.layer == protocol.layer and request.sender == protocol.node_id
    ((layer, sent, received, digest),) = transport.recorded
    assert (layer, sent) == (protocol.layer, len(request.payload))
    assert digest == (len(request.profile) if cls in DIGEST_LAYERS else 0)
    assert exchange_counts(obs, protocol.layer) == [
        ("exchanges", 1),
        ("descriptors_sent", sent),
        ("descriptors_received", received),
    ]


# -- the two halves: what the BSP engine runs across its barriers ----------------------


def _state(value):
    """A comparable copy of one protocol attribute (views by their entries,
    the hosting node by its id)."""
    if isinstance(value, PartialView):
        return value.descriptors()
    if isinstance(value, Node):
        return value.node_id
    if isinstance(value, dict):
        return {key: _state(item) for key, item in value.items()}
    return value


def node_state(network, node_id):
    """Every layer of the node by name, each as a comparable copy of its
    attributes."""
    return {
        name: {
            key: _state(item)
            for key, item in vars(instance).items()
            if key != "proximity"
        }
        for name, instance in network.node(node_id).stack()
    }


def exchange_world(cls, split):
    """Node 0's ``cls`` runs one exchange on the seeded warmed deployment of
    :func:`one_step`, by ``step()`` or by its halves; returns everything the
    exchange may touch: both nodes' layer state and streams, the ledger and
    the counters."""
    layer, flavor = CASES[cls]
    deployment = standard_deployment(32, 5, core_flavor=flavor)
    network = deployment.network
    deployment.run(1)
    transport, obs = RecordingTransport(), RecordingInstrument()
    ctx = RoundContext(
        node=network.node(0),
        network=network,
        transport=transport,
        streams=deployment.streams,
        round=1,
        layer=layer,
        obs=obs,
    )
    protocol = ctx.node.protocol(layer)
    if split:
        opened = protocol.open_exchange(ctx)
        partner_id, buffer, _, profile = opened
        # The partner answers as the in-memory transport has it answer:
        # under the requester's context, unobserved.
        partner = network.node(partner_id).protocol(layer)
        request = ExchangeRequest(layer, protocol.node_id, buffer, profile)
        reply = partner.on_request(dataclasses.replace(ctx, obs=None), request)
        protocol.close_exchange(ctx, opened, reply)
    else:
        protocol.step(ctx)
        partner_id = transport.partner
    nodes = (0, partner_id)
    return {
        "layers": {node_id: node_state(network, node_id) for node_id in nodes},
        "streams": [deployment.streams.stream(layer, n).getstate() for n in nodes],
        "ledger": (
            transport.recorded,
            transport.total_messages(layer),
            transport.total_bytes(layer),
        ),
        "counters": (obs.keyed, obs.named),
    }


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_the_halves_compose_to_step(cls):
    """Opening half, the partner's ``on_request``, closing half: the BSP
    schedule of one exchange leaves both nodes, the ledger and the counters
    exactly where ``step()`` does."""
    stepped = exchange_world(cls, split=False)
    assert stepped["ledger"][0], "the exchange must complete"
    assert exchange_world(cls, split=True) == stepped


# -- the closing half merges into the state the passive half left ----------------------

#: The layers that rank their view (the rest trim theirs by TOCS waves or keep
#: tables, so "outranked" means nothing there).
RANKING_LAYERS = (Vicinity, TMan)

#: Nodes of the interleaving scenario: rings of 16.
INTERLEAVED_NODES = 64


def interleaved_world(cls, third_id):
    """Node 0's ``cls`` opens an exchange and its partner answers it; then,
    before node 0 closes, node ``third_id``'s offer reaches node 0's passive
    half under node 0's own context — the BSP engine's respond phase, which
    runs between a node's opening and closing halves. Returns the pieces,
    with node 0's state ``before`` and ``after`` the passive half, or
    ``None`` when ``third_id`` is not a third party of this layer.

    The deployment starts cold, where a third party has the most to bring
    (a warmed UO2, say, refreshes every bucket at age 0 in its opening
    half, and a warmed core view holds nearly all its ring); only the port
    layers are warmed one round, to have a partner at all."""
    layer, flavor = CASES[cls]
    deployment = standard_deployment(INTERLEAVED_NODES, 5, core_flavor=flavor)
    network = deployment.network
    if cls in PORT_LAYERS:
        deployment.run(1)
    transport = RecordingTransport()

    def context(node_id):
        return RoundContext(
            node=network.node(node_id),
            network=network,
            transport=transport,
            streams=deployment.streams,
            round=1,
            layer=layer,
            obs=None,
        )

    ctx = context(0)
    protocol = ctx.node.protocol(layer)
    opened = protocol.open_exchange(ctx)
    partner_id, buffer, _, profile = opened
    third = network.node(third_id)
    if third_id == partner_id or not third.has_protocol(layer):
        return None
    reply = network.node(partner_id).protocol(layer).on_request(
        ctx, ExchangeRequest(layer, 0, buffer, profile)
    )
    sender = third.protocol(layer)
    offer, _ = sender._offer(context(third_id), None, 0, None)
    request = ExchangeRequest(layer, third_id, offer, sender.wire_profile)
    before = node_state(network, 0)
    protocol.on_request(ctx, request)
    return SimpleNamespace(
        network=network,
        protocol=protocol,
        ctx=ctx,
        opened=opened,
        reply=reply,
        request=request,
        before=before,
        after=node_state(network, 0),
    )


def from_the_request(world):
    """Ids the passive half ranked into the view off the third party's
    request alone: not held before, and in neither the feed the open
    gathered nor the partner's reply, so only the passive half has them."""
    layer = world.protocol.layer
    brought = view_ids(world.after, layer) - view_ids(world.before, layer)
    brought &= {d.node_id for d in world.request.payload}
    return brought - {d.node_id for d in (*world.opened[2], *world.reply)}


def view_ids(state, layer):
    return {d.node_id for d in state[layer]["view"]}


def absorbing_world(cls):
    """The first interleaved world whose passive half changes node 0 — for
    a ranking layer, brings into its view what only the request carried."""
    for third_id in range(1, INTERLEAVED_NODES):
        world = interleaved_world(cls, third_id)
        if world is None:
            continue
        if from_the_request(world) if cls in RANKING_LAYERS else world.before != world.after:
            return world
    pytest.fail("no third party's request changes node 0")


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_a_close_with_nothing_to_merge_keeps_what_the_passive_half_absorbed(cls):
    """Open, a third party's request to the same node, close on an empty
    reply: the close merges into the state the passive half left, so with
    nothing arriving that state stands whole — on every layer of the node."""
    world = absorbing_world(cls)
    world.protocol.close_exchange(world.ctx, world.opened, type(world.reply)())
    assert node_state(world.network, 0) == world.after


@pytest.mark.parametrize("cls", RANKING_LAYERS, ids=lambda cls: cls.__name__)
def test_what_the_passive_half_absorbed_yields_only_to_closer_entries(cls):
    """The same interleaving closed on the partner's real reply: an entry the
    passive half brought in leaves the view only when the view is full of
    entries ranked closer to the node."""
    world = absorbing_world(cls)
    protocol = world.protocol
    brought = from_the_request(world)
    protocol.close_exchange(world.ctx, world.opened, world.reply)

    def rank(descriptor):
        distance = protocol.proximity.distance(protocol.profile, descriptor.profile)
        return distance, descriptor.node_id

    held = protocol.view.descriptors()
    for descriptor in world.after[protocol.layer]["view"]:
        if descriptor.node_id in brought and descriptor.node_id not in protocol.view:
            assert len(held) == protocol.params.view_size
            assert all(rank(d) < rank(descriptor) for d in held)


# -- the have-digest: UO1 and UO2 ask for what they lack ------------------------------

#: class -> what its request says the requester already holds.
DIGEST_LAYERS = {
    SameComponentOverlay: lambda protocol: tuple(protocol.view.ids()),
    DistantComponentOverlay: lambda protocol: tuple(protocol.known_components()),
}


class DigestSnapshot(RecordingTransport):
    """Also notes the requester's digest-relevant state as the request leaves
    (the absorb that follows changes it)."""

    def __init__(self, held):
        super().__init__()
        self._held = held
        self.held_at_send = None

    def exchange(self, ctx, dst, request):
        self.held_at_send = self._held(ctx.node.protocol(request.layer))
        return super().exchange(ctx, dst, request)


@pytest.mark.parametrize("cls", DIGEST_LAYERS, ids=lambda cls: cls.__name__)
def test_request_carries_the_have_digest_and_the_ledger_charges_it(cls):
    transport = DigestSnapshot(DIGEST_LAYERS[cls])
    protocol, _, _ = one_step(cls, transport)
    (request,) = transport.requests
    (reply,) = transport.replies
    assert isinstance(request.profile, tuple) and request.profile
    assert request.profile == transport.held_at_send
    costs = transport.costs
    assert (costs.header_bytes, costs.descriptor_bytes) == (16, 24)
    assert transport.total_messages(protocol.layer) == 2
    assert transport.total_bytes(protocol.layer) == (
        2 * 16 + 24 * (len(request.payload) + len(reply)) + 4 * len(request.profile)
    )


@pytest.mark.parametrize(
    "cls", [c for c in CASES if c not in DIGEST_LAYERS], ids=lambda cls: cls.__name__
)
def test_layers_without_a_digest_are_charged_descriptors_alone(cls):
    transport = RecordingTransport()
    protocol, _, _ = one_step(cls, transport)
    (request,) = transport.requests
    (reply,) = transport.replies
    if cls in (Vicinity, TMan):
        assert request.profile == protocol.profile  # a coordinate: in the advert already
    else:
        assert request.profile is None
    assert transport.total_bytes(protocol.layer) == (
        2 * 16 + 24 * (len(request.payload) + len(reply))
    )


def passive_reply(cls, digest):
    """Node 0's first ``cls`` partner answers a request carrying ``digest``
    (a callable on the partner builds it); returns (partner, request, reply,
    stream state before, stream state after)."""
    transport = RecordingTransport()
    _, ctx, _ = one_step(cls, transport)
    (sent,) = transport.requests
    partner = next(
        node.protocol(sent.layer)
        for node in ctx.network.alive_nodes()
        if node.node_id != 0
        and node.has_protocol(sent.layer)
        and node.protocol(sent.layer).neighbors()
    )
    # The advert alone: what the reply leaves out is then the digest's doing.
    request = dataclasses.replace(sent, payload=sent.payload[:1], profile=digest(partner))
    ctx = dataclasses.replace(ctx, obs=None)
    before = ctx.rng().getstate()
    reply, _kept = partner._offer(ctx, None, request.sender, request)
    return partner, request, reply, before, ctx.rng().getstate()


def test_uo1_reply_holds_nothing_the_digest_lists_and_never_the_requester():
    partner, request, reply, before, after = passive_reply(
        SameComponentOverlay, lambda partner: tuple(partner.view.ids()[::2])
    )
    assert reply[0] is partner.self_descriptor()
    shipped = [d.node_id for d in reply[1:]]
    lacking = set(partner.view.ids()) - {request.sender, *request.profile}
    assert shipped and set(shipped) <= lacking
    budget = partner.params.gossip_size - 1
    assert len(shipped) == min(budget, len(lacking))
    # The one place a passive half draws: more lacking than the budget holds.
    assert (after != before) == (len(lacking) > budget)


def test_uo2_reply_serves_the_lacking_components_first_and_draws_nothing():
    partner, request, reply, before, after = passive_reply(
        DistantComponentOverlay, lambda partner: tuple(partner.known_components()[:1])
    )
    assert after == before
    assert reply[0] is partner.self_descriptor()
    theirs = request.payload[0].profile.component
    lacking = set(partner.known_components()) - {theirs, *request.profile}
    assert lacking, "the scenario must leave something to ask for"
    rotation = [d.profile.component for d in reply[1:] if d.profile.component != theirs]
    assert set(rotation) <= lacking
    slots = partner.gossip_contacts - len(reply) + len(rotation)
    assert len(set(rotation)) == min(slots, len(lacking))


@pytest.mark.parametrize("cls", DIGEST_LAYERS, ids=lambda cls: cls.__name__)
def test_none_and_empty_digests_get_the_same_uninformed_reply(cls):
    partner, _, none_reply, before, after_none = passive_reply(cls, lambda partner: None)
    _, _, empty_reply, again, after_empty = passive_reply(cls, lambda partner: ())
    assert before == again  # the scenario is seeded: two identical worlds
    assert none_reply == empty_reply and after_none == after_empty
    if cls is SameComponentOverlay:
        # ...and is the random slice of the whole view it always was.
        rng = random.Random()
        rng.setstate(before)
        assert none_reply[1:] == partner.view.sample(rng, partner.params.gossip_size - 1)


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
