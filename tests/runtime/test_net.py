"""UDP runtime: membership bookkeeping units plus a live in-process swarm."""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.runtime import wire
from repro.runtime.api import (
    OVERLAY_LAYER,
    PS_LAYER,
    ElementaryStack,
    RunnerConfig,
    make_runner,
)
from repro.gossip.descriptors import Descriptor
from repro.runtime.net import LIVENESS_WINDOW, NetDirectory, _Pending, parse_rendezvous
from repro.sim.node import Node


class TestParseRendezvous:
    def test_valid(self):
        assert parse_rendezvous("127.0.0.1:9000") == ("127.0.0.1", 9000)

    def test_ipv6_style_uses_last_colon(self):
        assert parse_rendezvous("::1:9000") == ("::1", 9000)

    @pytest.mark.parametrize(
        "text", ["", "nohost", ":9000", "host:", "host:abc", "host:0", "host:70000"]
    )
    def test_malformed(self, text):
        with pytest.raises(ConfigurationError):
            parse_rendezvous(text)


#: The stack every member of the directory's 4-node ring swarm runs.
STACK = ElementaryStack("ring", 4)


def known_ids(runner):
    """The runner's own id and every peer in its roster, sorted."""
    return sorted([runner.node_id, *(row[0] for row in runner.directory.roster())])


def make_directory():
    local = Node(0)
    STACK.attach(local, rank=0)
    return NetDirectory(local, STACK)


class TestNetDirectory:
    def test_add_peer_news_and_update(self):
        directory = make_directory()
        assert directory.add_peer(1, "127.0.0.1", 9001) is True
        assert directory.add_peer(1, "127.0.0.1", 9002) is False  # update, not news
        assert directory.addr_of(1) == ("127.0.0.1", 9002)
        assert directory.add_peer(0, "127.0.0.1", 9000) is False  # self is not a peer
        assert directory.roster() == [(1, "127.0.0.1", 9002)]

    def test_network_surface(self):
        directory = make_directory()
        directory.add_peer(2, "127.0.0.1", 9002)
        directory.add_peer(1, "127.0.0.1", 9001)
        assert directory.alive_ids() == [0, 1, 2]
        assert [row[0] for row in directory.roster()] == [1, 2]
        assert directory.has_node(0) and directory.has_node(2)
        assert not directory.has_node(9)
        assert directory.alive_count() == 3
        assert directory.local.node_id == 0

    def test_the_peer_seam(self):
        """The local id and a known peer are answered from the stack as the
        rank equal to their id; an unknown peer runs nothing; a peer silent
        past the window is dead but still known, so what it ran stands."""
        directory = make_directory()
        directory.add_peer(2, "127.0.0.1", 9002)
        directory.add_peer(3, "127.0.0.1", 9003)
        local_overlay = directory.local.protocol(OVERLAY_LAYER)
        for node_id in (0, 2):
            assert directory.is_alive(node_id)
            assert directory.runs(node_id, PS_LAYER)
            assert directory.runs(node_id, OVERLAY_LAYER)
            assert directory.profile(node_id, OVERLAY_LAYER) == STACK.profile(node_id)
            assert directory.profile(node_id, PS_LAYER) is None
            assert directory.advert(node_id, OVERLAY_LAYER) == Descriptor(
                node_id, age=0, profile=STACK.profile(node_id)
            )
            assert directory.advert(node_id, PS_LAYER) == Descriptor(node_id, age=0)
        assert directory.advert(0, OVERLAY_LAYER) == local_overlay.self_descriptor()
        assert not directory.runs(0, "uo1")
        # Unknown: not alive, runs nothing, has no profile or advert.
        assert not directory.is_alive(1)
        assert not directory.runs(1, OVERLAY_LAYER)
        assert directory.profile(1, OVERLAY_LAYER) is None
        assert directory.advert(1, OVERLAY_LAYER) is None
        # Silent past the window: dead, yet still a member of the table.
        directory.round += LIVENESS_WINDOW
        directory.touch(2)
        directory.round += 1
        assert directory.is_alive(2) and not directory.is_alive(3)
        assert directory.runs(3, OVERLAY_LAYER)
        assert directory.profile(3, OVERLAY_LAYER) == STACK.profile(3)
        assert directory.advert(3, OVERLAY_LAYER).node_id == 3

    def test_liveness_window(self):
        directory = make_directory()
        directory.add_peer(1, "127.0.0.1", 9001)
        assert directory.is_alive(1)
        directory.round += LIVENESS_WINDOW
        assert directory.is_alive(1)  # exactly at the window edge
        directory.round += 1
        assert not directory.is_alive(1)
        assert directory.alive_ids() == [0]  # self is always alive
        directory.touch(1)
        assert directory.is_alive(1)
        assert directory.alive_ids() == [0, 1]

    def test_every_new_peer_registers_with_the_rendezvous(self):
        directory = make_directory()
        directory.add_peer(2, "127.0.0.1", 9002)
        directory.add_peer(1, "127.0.0.1", 9001)
        directory.add_peer(2, "127.0.0.1", 9012)  # not news: no second entry
        directory.add_peer(0, "127.0.0.1", 9000)  # self is never a peer
        directory.round += LIVENESS_WINDOW + 1  # silence does not deregister
        assert not directory.is_alive(1)
        assert directory.rendezvous.sample(random.Random(0), 5) in ([1, 2], [2, 1])

    def test_touch_unknown_peer_is_noop(self):
        directory = make_directory()
        directory.touch(42)
        assert directory.addr_of(42) is None


def test_hostile_map_datagram_is_counted_and_the_node_keeps_answering():
    """A ``__m`` tag with an unhashable key used to raise ``TypeError`` past
    ``on_datagram``'s ``except WireError``: uncounted, and into the receive
    loop. It is one more malformed datagram, and the next PING gets its PONG."""
    hostile = (
        b'{"id":"1:1","payload":{"__m":[[[1],2]]},"src":1,'
        b'"t":"GOSSIP_REQ","v":3}'
    )
    ping = wire.encode(wire.make_frame(wire.PING, src=1, msg_id="1:2"))
    config = RunnerConfig(kind="net", n_nodes=2, shape="ring", seed=11, node_index=0)
    with make_runner(config) as runner, socket.socket(
        socket.AF_INET, socket.SOCK_DGRAM
    ) as peer:
        runner.start()
        peer.settimeout(10.0)
        peer.sendto(hostile, ("127.0.0.1", runner.port))
        peer.sendto(ping, ("127.0.0.1", runner.port))
        reply, _ = peer.recvfrom(wire.MAX_FRAME_BYTES)
        assert wire.decode(reply)["t"] == wire.PONG
        # One socket to one socket on loopback: the PING was read second.
        stats = runner.wire_stats()
        assert (stats["datagrams_received"], stats["malformed"]) == (2, 1)


#: Address rows the membership handlers must refuse on a 4-node runner.
BAD_PEER_ROWS = [
    [99, "127.0.0.1", 9000],  # id past n_nodes
    [-1, "127.0.0.1", 9002],  # negative id
    [True, "127.0.0.1", 9001],  # JSON true is 1: it would overwrite peer 1
    [2, "127.0.0.1", 70000],  # port past 65535
    [3, "127.0.0.1", True],  # a bool is not a port
]


def test_bad_address_rows_are_malformed_and_never_added():
    """``PEERS_LIST`` rows and a ``HELLO`` address pass one check: a bad row
    is a counted malformed frame, and reaches neither the directory nor the
    rendezvous, so it can neither hijack a peer nor end the roster poll."""
    config = RunnerConfig(kind="net", n_nodes=4, shape="ring", seed=11, node_index=0)
    frames = [
        wire.make_frame(wire.PEERS_LIST, 1, f"1:{i}", peers=[row])
        for i, row in enumerate(BAD_PEER_ROWS)
    ]
    frames.append(wire.make_frame(wire.HELLO, 50, "50:1", host="127.0.0.1", port=0))
    good = wire.make_frame(
        wire.PEERS_LIST, 1, "1:9", peers=[[1, "127.0.0.1", 9001], [3, "::1", 9003]]
    )
    with make_runner(config) as runner:
        endpoint = runner.endpoint
        for frame in frames:
            endpoint._handle_frame(wire.decode(wire.encode(frame)), ("127.0.0.1", 9001))
        assert endpoint.malformed == len(frames)
        assert runner.directory.peers == {}
        assert runner.directory.rendezvous.sample(random.Random(0), 8) == []
        endpoint._handle_frame(wire.decode(wire.encode(good)), ("127.0.0.1", 9001))
        assert endpoint.malformed == len(frames)
        assert runner.directory.roster() == [(1, "127.0.0.1", 9001), (3, "::1", 9003)]


def handle(endpoint, frame):
    """``frame`` through the codec, then its handler on the endpoint's loop."""
    endpoint.call(endpoint._handle_frame, wire.decode(wire.encode(frame)), ("127.0.0.1", 9002))


def pending_on(endpoint, peer, layer):
    """A request record awaiting ``peer``'s ``layer`` reply on the loop."""
    return _Pending(peer, layer, endpoint.call(endpoint._loop.create_future))


#: ``(src, payload)`` of replies to a request node 0 sent node 2: none is its
#: answer. The first comes from a node that was not asked; the rest carry
#: what no layer of the runner replies with (``[1, 2, 3]`` used to raise
#: ``AttributeError`` out of ``run_round``).
HOSTILE_REPLIES = [
    (3, [Descriptor(3)]),
    (2, [1, 2, 3]),
    (2, [Descriptor(2), 7]),
    (2, None),
    (2, {"node": 2}),
    (2, (Descriptor(2),)),
]


def test_wrong_sender_or_payload_replies_are_malformed_and_resolve_nothing():
    """A ``GOSSIP_RESP`` resolves its request only if it comes from the node
    asked and carries a descriptor list; every other one is counted
    malformed and leaves the reply future unresolved, so the exchange
    times out to ``None``."""
    config = RunnerConfig(kind="net", n_nodes=4, shape="ring", seed=11, node_index=0)
    with make_runner(config) as runner:
        runner.start()
        endpoint = runner.endpoint
        pending = endpoint._pending["0:1"] = pending_on(endpoint, 2, "peer_sampling")
        for seq, (src, payload) in enumerate(HOSTILE_REPLIES):
            reply = wire.make_frame(
                wire.GOSSIP_RESP, src, f"{src}:{seq}", re="0:1",
                layer="peer_sampling", payload=payload,
            )
            handle(endpoint, reply)
        assert endpoint.malformed == len(HOSTILE_REPLIES)
        assert not pending.reply.done()
        answer = wire.make_frame(
            wire.GOSSIP_RESP, 2, "2:9", re="0:1", layer="peer_sampling",
            payload=[Descriptor(2), Descriptor(1, 3)],
        )
        handle(endpoint, answer)
        assert endpoint.malformed == len(HOSTILE_REPLIES)
        assert pending.reply.done()
        assert pending.reply.result() == [Descriptor(2), Descriptor(1, 3)]
        # A second answer (a fresh id, so not a duplicate) finds the request
        # resolved and changes nothing.
        handle(endpoint, dict(answer, id="2:10", payload=[Descriptor(2)]))
        assert endpoint.malformed == len(HOSTILE_REPLIES)
        assert pending.reply.result() == [Descriptor(2), Descriptor(1, 3)]


def test_unanswered_exchange_times_out_to_none():
    """What a malformed reply leaves behind: the layer sees a timeout."""
    config = RunnerConfig(kind="net", n_nodes=4, shape="ring", seed=11, node_index=0)
    with make_runner(config) as runner:
        runner.start()
        endpoint = runner.endpoint
        endpoint.call(runner.directory.add_peer, 2, "127.0.0.1", 9002)
        request = wire.make_frame(
            wire.GOSSIP_REQ, 0, "0:1", layer="peer_sampling", payload=[], profile=None
        )
        assert endpoint.call(endpoint.request, 2, request, 0.01) is None
        assert endpoint.peer_drops[2] == 1 and endpoint._pending == {}


#: Wire-valid overlay profiles a grid cannot rank: ``{"__m":[[1,2]]}`` decodes
#: to a map (the memo read raised ``TypeError: unhashable``), a one-element
#: array to ``(5,)`` (``manhattan`` raised ``IndexError``).
UNRANKABLE_PROFILES = [{1: 2}, (5,)]


@pytest.mark.parametrize("hostile", UNRANKABLE_PROFILES, ids=["map", "short_tuple"])
def test_unrankable_profiles_are_malformed_on_either_half(hostile):
    """A request whose payload or ``profile`` carries a profile the overlay
    never ships, and a reply whose payload does, are counted malformed: the
    request is not absorbed, the reply resolves nothing. So is a coordinate
    on peer sampling, which ships none."""
    config = RunnerConfig(kind="net", n_nodes=4, shape="grid", seed=11, node_index=0)
    good = [Descriptor(2, 0, (1, 0))]
    requests = [
        {"layer": "overlay", "payload": [Descriptor(3, 0, hostile)], "profile": (1, 0)},
        {"layer": "overlay", "payload": good, "profile": hostile},
        {"layer": "peer_sampling", "payload": good, "profile": None},
    ]
    with make_runner(config) as runner:
        runner.start()
        endpoint = runner.endpoint
        view = runner.node.protocol("overlay").view
        for seq, fields in enumerate(requests):
            handle(endpoint, wire.make_frame(wire.GOSSIP_REQ, 2, f"2:{seq}", **fields))
        assert endpoint.malformed == len(requests)
        assert len(view) == 0
        pending = endpoint._pending["0:1"] = pending_on(endpoint, 2, "overlay")
        reply = wire.make_frame(
            wire.GOSSIP_RESP, 2, "2:9", re="0:1", layer="overlay",
            payload=[Descriptor(3, 0, hostile)],
        )
        handle(endpoint, reply)
        assert endpoint.malformed == len(requests) + 1
        assert not pending.reply.done()


@pytest.mark.parametrize("hostile", UNRANKABLE_PROFILES, ids=["map", "short_tuple"])
def test_unrankable_reply_is_malformed_and_the_node_keeps_stepping(hostile):
    """A peer answers the overlay exchange with an unrankable profile for a
    node the overlay has no other copy of (a copy of the peer's own would
    lose the dedupe to its age-0 advert). The reply used to reach the
    overlay's merge and raise out of ``run_round``; now it is one malformed
    datagram, the exchange times out, and the node goes on stepping."""
    config = RunnerConfig(
        kind="net", n_nodes=4, shape="grid", seed=11, node_index=0, round_interval=0.2
    )
    answers = {
        "peer_sampling": [Descriptor(2)],
        "overlay": [Descriptor(3, 0, hostile)],
    }
    with make_runner(config) as runner, socket.socket(
        socket.AF_INET, socket.SOCK_DGRAM
    ) as peer:
        peer.bind(("127.0.0.1", 0))
        peer.settimeout(10.0)
        runner.start()
        runner.directory.add_peer(2, "127.0.0.1", peer.getsockname()[1])
        served = []

        def serve():
            # Answer the first request of each layer; then stop.
            while len(served) < len(answers):
                data, addr = peer.recvfrom(wire.MAX_FRAME_BYTES)
                frame = wire.decode(data)
                if frame["t"] != wire.GOSSIP_REQ or frame["layer"] in served:
                    continue
                served.append(frame["layer"])
                reply = wire.make_frame(
                    wire.GOSSIP_RESP, 2, f"2:{len(served)}", re=frame["id"],
                    layer=frame["layer"], payload=answers[frame["layer"]],
                )
                peer.sendto(wire.encode(reply), addr)

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        runner.run_round()  # peer sampling bootstraps to 2, the overlay follows
        server.join(timeout=10.0)
        assert not server.is_alive()
        assert served == ["peer_sampling", "overlay"]
        assert runner.wire_stats()["malformed"] == 1
        assert runner.node.protocol("overlay").view.ids() == []
        runner.run_round()
        assert runner.round == 2


#: Rounds the lockstep test starts on both nodes at the same instant.
LOCKSTEP_ROUNDS = 4


def test_nodes_stepping_at_the_same_instant_answer_each_other():
    """Both nodes start every round together (a barrier), so each one's
    request reaches the other while that one waits for its own reply. The
    loop answers it between the two halves: every exchange of both layers
    completes, and no peer is charged a drop."""
    base = dict(kind="net", n_nodes=2, shape="ring", seed=11, round_interval=0.5)
    with make_runner(RunnerConfig(node_index=0, **base)) as first:
        first.start()
        rendezvous = f"127.0.0.1:{first.port}"
        with make_runner(
            RunnerConfig(node_index=1, rendezvous=rendezvous, **base)
        ) as second:
            second.start()
            runners = (first, second)
            barrier = threading.Barrier(len(runners))

            def drive(runner):
                for _ in range(LOCKSTEP_ROUNDS):
                    barrier.wait(timeout=10.0)
                    runner.run_round()

            threads = [
                threading.Thread(target=drive, args=(runner,), daemon=True)
                for runner in runners
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            for runner in runners:
                assert runner.round == LOCKSTEP_ROUNDS
                assert runner.peer_stats()["drops"] == {}
                for layer in (PS_LAYER, OVERLAY_LAYER):
                    # A completed exchange records its request and its reply.
                    assert runner.transport.total_messages(layer) == 2 * LOCKSTEP_ROUNDS


#: Rounds within which a running node learns a late joiner from its poll:
#: measured 1 (its next HELLO is answered with the new roster), plus one
#: round of slack for a loaded scheduler.
LATE_JOIN_ROUNDS = 2


@pytest.mark.slow
def test_late_joiner_is_learned_through_the_hello_poll(monkeypatch):
    """Node 1 runs knowing only the rendezvous; node 2 joins later, and node
    1's next ``HELLO`` poll brings it the roster that names node 2. No frame
    on the wire is anything but one of the six types."""
    decoded = []
    plain_decode = wire.decode

    def recording_decode(data):
        frame = plain_decode(data)
        decoded.append(frame["t"])
        return frame

    monkeypatch.setattr(wire, "decode", recording_decode)
    interval = 0.05
    base = dict(kind="net", n_nodes=3, shape="ring", seed=11, round_interval=interval)
    runners = [make_runner(RunnerConfig(node_index=0, **base))]

    def tick():
        for runner in runners:
            runner.run_round()
        time.sleep(interval)

    try:
        runners[0].start()
        rendezvous = f"127.0.0.1:{runners[0].port}"
        early = make_runner(RunnerConfig(node_index=1, rendezvous=rendezvous, **base))
        runners.append(early)
        for _ in range(3):
            tick()
        assert sorted(early.directory.peers) == [0]
        late = make_runner(RunnerConfig(node_index=2, rendezvous=rendezvous, **base))
        runners.append(late)
        late.start()  # HELLOs until the rendezvous has answered
        for rounds in range(1, LATE_JOIN_ROUNDS + 1):
            tick()
            if 2 in early.directory.peers:
                break
        assert sorted(early.directory.peers) == [0, 2], rounds
        for runner in runners:
            assert known_ids(runner) == [0, 1, 2]
            assert runner.wire_stats()["malformed"] == 0
        assert {wire.HELLO, wire.PEERS_LIST} <= set(decoded) <= wire.FRAME_TYPES
    finally:
        for runner in runners:
            runner.close()


@pytest.mark.slow
def test_three_node_swarm_in_process():
    """Three live UDP nodes on threads: full roster, ring-3 convergence."""
    n, rounds = 3, 60
    base = dict(kind="net", n_nodes=n, shape="ring", seed=11, round_interval=0.05)
    runners = [make_runner(RunnerConfig(node_index=0, **base))]
    try:
        runners[0].start()
        rendezvous = f"127.0.0.1:{runners[0].port}"
        for i in range(1, n):
            runners.append(
                make_runner(RunnerConfig(node_index=i, rendezvous=rendezvous, **base))
            )
        threads = [
            threading.Thread(target=r.run, args=(rounds,), daemon=True)
            for r in runners
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=rounds * 0.05 + 15)
        assert not any(thread.is_alive() for thread in threads)
        for runner in runners:
            assert known_ids(runner) == list(range(n))
            assert runner.round > 0
            stats = runner.wire_stats()
            assert stats["malformed"] == 0
        adjacency = {r.node_id: set(r.neighbors()) for r in runners}
        assert runners[0].stack.shape.converged(adjacency, n)
    finally:
        for runner in runners:
            runner.close()
            runner.close()  # idempotent
