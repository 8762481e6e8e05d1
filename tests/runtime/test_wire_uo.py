"""The utility overlays cross the wire codec with their types intact.

UO1 and UO2 test every descriptor with ``isinstance(profile, NodeProfile)``
and ship a have-digest — a tuple — in the request's profile slot. JSON alone
would hand the passive half a list for either, and a bare tuple for the
profile would make ``_accepts`` / ``_insert`` drop every descriptor. These
tests push one real exchange of each layer through
:class:`~repro.runtime.loopback.LoopbackTransport` (encode → bytes → decode
on the request and on the reply) and require what arrives, and what both
halves do with it, to be what the in-memory transport gives.

Out of scope: the port layers' payloads (belief and binding tables keyed by
:class:`~repro.core.link.PortRef`), which the codec still refuses — the full
six-layer stack over a wire transport is ROADMAP item 5(b).
"""

from __future__ import annotations

import json

import pytest

from repro.core.layers import LAYER_UO1, LAYER_UO2
from repro.core.profiles import NodeProfile
from repro.errors import WireError
from repro.gossip.descriptors import Descriptor
from repro.heal.scenarios import standard_deployment
from repro.runtime import wire
from repro.runtime.loopback import LoopbackTransport
from repro.sim.engine import RoundContext
from repro.sim.transport import Transport


class Tap(Transport):
    """The innermost transport: sees what the passive half is handed (the
    decoded request) and what it answers (before encoding)."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def exchange(self, ctx, dst, request):
        reply = super().exchange(ctx, dst, request)
        self.seen.append((dst, request, reply))
        return reply


def one_step(layer, wired):
    """One active step of node 0's ``layer`` in a seeded, warmed-up world;
    returns (deployment, the tap)."""
    deployment = standard_deployment(32, 5)
    deployment.run(2)
    tap = Tap()
    node = deployment.network.node(0)
    ctx = RoundContext(
        node=node,
        network=deployment.network,
        transport=LoopbackTransport(tap) if wired else tap,
        streams=deployment.streams,
        round=3,  # odd: UO2 draws a foreign contact
        layer=layer,
        obs=None,
    )
    node.protocol(layer).step(ctx)
    return deployment, tap


def state_of(deployment, layer, node_id):
    protocol = deployment.network.node(node_id).protocol(layer)
    if layer == LAYER_UO1:
        return [(d.node_id, d.age, d.profile) for d in protocol.view]
    return {
        name: [(d.node_id, d.age, d.profile) for d in protocol.contacts(name)]
        for name in protocol.known_components()
    }


@pytest.mark.parametrize("layer", [LAYER_UO1, LAYER_UO2])
def test_request_digest_and_reply_survive_the_codec(layer):
    plain_world, plain = one_step(layer, wired=False)
    wired_world, wired = one_step(layer, wired=True)
    ((partner, request, reply),) = wired.seen
    ((plain_partner, plain_request, plain_reply),) = plain.seen
    assert partner == plain_partner

    # What the passive half was handed: the digest a tuple, every profile a
    # NodeProfile — equal, field for field, to what never left memory.
    assert isinstance(request.profile, tuple) and request.profile
    assert request.profile == plain_request.profile
    for shipped, original in ((request.payload, plain_request.payload), (reply, plain_reply)):
        assert shipped  # a UO1 reply may be the advert alone: nothing was lacking
        assert [(d.node_id, d.age, d.profile) for d in shipped] == [
            (d.node_id, d.age, d.profile) for d in original
        ]
        assert all(type(d.profile) is NodeProfile for d in shipped)

    # ...and what both halves made of it.
    for node_id in (0, partner):
        for stack_layer in (LAYER_UO1, LAYER_UO2):  # UO2 feeds the sibling UO1
            assert state_of(wired_world, stack_layer, node_id) == state_of(
                plain_world, stack_layer, node_id
            )
    ledger, plain_ledger = wired_world.transport, plain_world.transport
    assert ledger.total_bytes(layer) == plain_ledger.total_bytes(layer)


def test_a_decoded_reply_keeps_its_types():
    """The reply leg on its own: ``LoopbackTransport`` decodes it after the
    tap, so round-trip one by hand."""
    _, tap = one_step(LAYER_UO2, wired=False)
    ((partner, request, reply),) = tap.seen
    frame = wire.make_frame(
        wire.GOSSIP_RESP, src=partner, msg_id=f"{partner}:1", layer=LAYER_UO2, payload=reply
    )
    decoded = wire.decode(wire.encode(frame))["payload"]
    assert decoded == reply
    assert [d.profile for d in decoded] == [d.profile for d in reply]
    assert all(type(d.profile) is NodeProfile for d in decoded)


def test_node_profile_round_trips_with_its_coordinate():
    for coord in (0, 2.5, (1, 2), ((0.5, 1.0), 3), None):
        profile = NodeProfile("ring07", 3, 6, coord)
        frame = wire.make_frame(
            wire.GOSSIP_REQ, src=1, msg_id="1:1", payload=[Descriptor(4, 2, profile)]
        )
        (out,) = wire.decode(wire.encode(frame))["payload"]
        assert type(out.profile) is NodeProfile and out.profile == profile
        assert type(out.profile.coord) is type(coord)


@pytest.mark.parametrize(
    "fields",
    [
        "ring",
        ["ring", 1, 4],
        ["ring", 1, 4, 0, 0],
        [7, 1, 4, 0],
        ["ring", "1", 4, 0],
        ["ring", 1, True, 0],
        ["ring", 1, 4, {"__t": 3}],
    ],
)
def test_hostile_node_profile_tags_raise(fields):
    frame = {
        "v": wire.WIRE_VERSION,
        "t": wire.GOSSIP_REQ,
        "id": "1:1",
        "src": 1,
        "payload": {"__n": fields},
    }
    with pytest.raises(WireError):
        wire.decode(json.dumps(frame).encode())
