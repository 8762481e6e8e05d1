"""The live asyncio UDP runtime: one real node of a gossip swarm.

Each :class:`NetRunner` hosts exactly one node of the elementary stack —
the same, unmodified :class:`~repro.gossip.peer_sampling.PeerSampling` and
:class:`~repro.gossip.vicinity.Vicinity` classes the simulator runs — and
speaks the versioned JSON wire codec (:mod:`repro.runtime.wire`) over an
asyncio UDP endpoint. The layers never learn they left the simulator:

- :class:`NetDirectory` is the layers' ``ctx.peers`` (and ``ctx.network``,
  for the rendezvous). It answers the peer questions — alive? runs a
  layer? under which profile? what does it advertise? — from the
  membership table alone: a swarm member's id is its shape rank, so a
  known peer's advertisement is its rank's coordinate, the piggybacked
  knowledge a real datagram carries and nothing more. Only the local node
  holds protocol objects.
- :class:`NetRunner` drives each layer through the two halves of the
  exchange: ``open_exchange``, a ``GOSSIP_REQ`` datagram, a wait on the
  matching ``GOSSIP_RESP`` (with a timeout), ``close_exchange``. A timeout
  closes on ``None`` — the outcome every layer already treats as a failed
  exchange. :class:`NetTransport` only answers the ``deliverable`` and
  ``reachable`` gates, from the liveness table.

Protocol state has one thread, the endpoint's asyncio loop. The round is a
coroutine on it, and a ``GOSSIP_REQ`` runs ``on_request`` on it between a
round's own open and close, as the BSP engine's respond phase does; the
closing half merges into the view as it is then. The caller's thread only
submits work to the loop and waits for it (:meth:`NetEndpoint.call`), so
two nodes that step at the same instant answer each other.

Membership has one path, the bootstrap rendezvous: a node that is not the
rendezvous ``HELLO``\\ s it every round until it knows ``n_nodes - 1``
peers, and the rendezvous answers every ``HELLO`` with its full
``PEERS_LIST`` roster. ``HELLO`` is idempotent, so the poll needs no
state; a late joiner reaches the others through their next poll. Every
address row from the wire passes one check (:meth:`NetEndpoint._add_peer`)
before it enters the directory. Liveness is ``PING``/``PONG`` on the round
ticker: a peer that stays silent for :data:`LIVENESS_WINDOW` rounds is
considered dead until heard from again.

This module is the *only* wall-clock-driven engine in the repo. The clock
is read through one helper (:func:`_now`, carrying a reviewed lint pragma)
and the caller's thread paces through :func:`_sleep`; the loop only waits
on its own timers. Everything else is round-counter logic, so the deep
determinism passes can treat the round and the receive loop as roots
without drowning in clock findings.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from collections import defaultdict

from repro.errors import ConfigurationError, SimulationError, WireError
from repro.gossip.descriptors import Descriptor
from repro.runtime import wire
from repro.runtime.api import OVERLAY_LAYER, PS_LAYER, ElementaryStack, RunnerConfig
from repro.runtime.lamport import LamportClock
from repro.sim.engine import RoundContext
from repro.sim.network import Rendezvous
from repro.sim.node import Node
from repro.sim.rng import RandomStreams
from repro.sim.transport import ExchangeRequest, Transport, TransportDecorator

#: Rounds of silence before a known peer is considered dead.
LIVENESS_WINDOW = 5

#: Fraction of the round interval an exchange may wait for its reply.
REPLY_TIMEOUT_FRACTION = 0.8

#: Seconds between HELLO retries while waiting for the first roster.
HELLO_RETRY_INTERVAL = 0.05

#: Frame types that carry trace context when tracing is enabled — the
#: information-bearing traffic (gossip exchanges); liveness and bootstrap
#: frames stay minimal.
TRACED_FRAME_TYPES = frozenset((wire.GOSSIP_REQ, wire.GOSSIP_RESP))


def _now() -> float:
    """Wall clock of the live runtime — the module's only clock read."""
    return time.monotonic()  # repro-lint: disable=DET003


def _sleep(seconds: float) -> None:
    """Wall-clock pacing of the caller's thread (the loop awaits its own timers)."""
    time.sleep(seconds)


def parse_rendezvous(value: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``, validated."""
    host, sep, port_text = value.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"rendezvous must be 'host:port', got {value!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"rendezvous port must be an integer, got {port_text!r}"
        ) from None
    if not 1 <= port <= 65535:
        raise ConfigurationError(f"rendezvous port out of range: {port}")
    return host, port


@dataclass
class PeerInfo:
    """What this node knows about one remote swarm member."""

    node_id: int
    host: str
    port: int
    #: Round counter value when the peer was last heard from.
    last_seen_round: int = 0

    @property
    def addr(self) -> Tuple[str, int]:
        return (self.host, self.port)


class NetDirectory:
    """What one swarm node knows of its peers: the layers' ``ctx.peers``.

    It answers the peer seam the round engine's
    :class:`~repro.sim.network.Network` answers — :meth:`is_alive`,
    :meth:`runs`, :meth:`profile`, :meth:`advert` — plus the
    :attr:`rendezvous` an empty peer-sampling view re-bootstraps from, all
    from the membership table the wire protocol maintains. Every peer
    :meth:`add_peer` learns of registers with the rendezvous and never
    leaves it, as in the simulator. Every member runs ``stack`` as the
    shape rank equal to its id, so what a known peer advertises on a layer
    is read off ``stack``, not off a protocol object of its own: only the
    local node has those.
    """

    def __init__(self, local: Node, stack: ElementaryStack):
        self.local = local
        self.peers: Dict[int, PeerInfo] = {}
        self.rendezvous = Rendezvous()
        self.round = 0
        ranks = range(stack.n_nodes)
        #: layer -> what each rank advertises on it, minted once.
        self._adverts: Dict[str, List[Descriptor]] = {
            PS_LAYER: [Descriptor(rank, age=0) for rank in ranks],
            OVERLAY_LAYER: [
                Descriptor(rank, age=0, profile=stack.profile(rank)) for rank in ranks
            ],
        }

    # -- membership (wire side) ----------------------------------------------

    def add_peer(self, node_id: int, host: str, port: int) -> bool:
        """Record a peer; returns ``True`` when it is news."""
        if node_id == self.local.node_id:
            return False
        known = self.peers.get(node_id)
        if known is not None:
            known.host, known.port = host, port
            known.last_seen_round = self.round
            return False
        self.peers[node_id] = PeerInfo(node_id, host, port, self.round)
        self.rendezvous.register(node_id)
        return True

    def touch(self, node_id: int) -> None:
        """Refresh a peer's liveness on any received traffic."""
        peer = self.peers.get(node_id)
        if peer is not None:
            peer.last_seen_round = self.round

    def addr_of(self, node_id: int) -> Optional[Tuple[str, int]]:
        peer = self.peers.get(node_id)
        return peer.addr if peer is not None else None

    def roster(self) -> List[Tuple[int, str, int]]:
        """``(id, host, port)`` rows for every known peer (not self)."""
        return [
            (peer.node_id, peer.host, peer.port)
            for peer in sorted(self.peers.values(), key=lambda p: p.node_id)
        ]

    # -- the peer seam (layer side) ---------------------------------------------

    def has_node(self, node_id: int) -> bool:
        return node_id == self.local.node_id or node_id in self.peers

    def is_alive(self, node_id: int) -> bool:
        if node_id == self.local.node_id:
            return True
        peer = self.peers.get(node_id)
        if peer is None:
            return False
        return self.round - peer.last_seen_round <= LIVENESS_WINDOW

    def runs(self, node_id: int, layer: str) -> bool:
        """Whether ``node_id`` is this node or a known peer, and ``layer`` one
        of the stack's."""
        return layer in self._adverts and self.has_node(node_id)

    def advert(self, node_id: int, layer: str) -> Optional[Descriptor]:
        """What ``node_id`` advertises on ``layer``; ``None`` for an unknown
        peer or layer."""
        return self._adverts[layer][node_id] if self.runs(node_id, layer) else None

    def profile(self, node_id: int, layer: str) -> Any:
        """The profile ``node_id`` holds on ``layer``; ``None`` for an unknown
        peer or layer (and on peer sampling, which has none)."""
        advert = self.advert(node_id, layer)
        return None if advert is None else advert.profile

    def alive_ids(self) -> List[int]:
        """This node and every peer it still hears from, sorted."""
        return [nid for nid in sorted([self.local.node_id, *self.peers]) if self.is_alive(nid)]

    def alive_count(self) -> int:
        return len(self.alive_ids())


class _Pending(NamedTuple):
    """One in-flight request awaiting its GOSSIP_RESP from ``peer``."""

    #: The node asked: a reply from any other ``src`` is not its answer.
    peer: int
    #: The layer asked: the reply must carry what that layer ships.
    layer: str
    #: Resolved with the reply's payload on the loop.
    reply: "asyncio.Future[Any]"


class _DatagramProtocol(asyncio.DatagramProtocol):
    """Thin asyncio shim: hands every datagram to the endpoint."""

    def __init__(self, endpoint: "NetEndpoint"):
        self.endpoint = endpoint

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        self.endpoint.on_datagram(data, addr)


class NetEndpoint:
    """The node's socket, receive loop, and wire-protocol state machine.

    Owns a dedicated asyncio event loop on a daemon thread, and that loop
    is the only thread that touches protocol state (views, buckets, the
    directory): it receives every datagram, sends every frame and runs the
    round. Other threads reach it through :meth:`call` alone.
    """

    def __init__(self, runner: "NetRunner"):
        self.runner = runner
        self.directory = runner.directory
        self.seen = wire.SeenSet()
        self._msg_ids = wire.MsgIdSource(runner.node_id)
        self._pending: Dict[str, _Pending] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._transport: Optional[asyncio.DatagramTransport] = None
        # Wire-level accounting (actual datagram traffic, not modelled costs).
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.malformed = 0
        self.duplicates = 0
        # Per-peer accounting: bytes exchanged with each peer and dropped
        # (timed-out) exchanges per destination. Always on, like the
        # aggregate counters — plain int upserts per datagram.
        self.peer_bytes_sent: Dict[int, int] = defaultdict(int)
        self.peer_bytes_received: Dict[int, int] = defaultdict(int)
        self.peer_drops: Dict[int, int] = defaultdict(int)
        #: Cross-node event ordering — ticks on every send, observes every
        #: received trace field. Purely logical; see runtime.lamport.
        self.lamport = LamportClock()
        self.port = 0

    def next_id(self) -> str:
        """A fresh message id."""
        return self._msg_ids.next()

    # -- lifecycle ------------------------------------------------------------

    def start(self, bind_host: str, port: int) -> None:
        """Start the loop thread and bind the socket on it."""
        loop = self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run_loop, daemon=True)
        self._thread.start()
        self._transport, _ = self.call(
            loop.create_datagram_endpoint, lambda: _DatagramProtocol(self), (bind_host, port)
        )
        self.port = self._transport.get_extra_info("sockname")[1]

    def _run_loop(self) -> None:
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)`` on the loop thread, awaited if it is a coroutine.

        The caller waits for the result, and an exception raised there
        raises here. On the loop thread itself (an ``on_round`` hook
        reading views) and with no loop thread (before :meth:`start`,
        after :meth:`close`), ``fn`` runs in place.
        """
        thread = self._thread
        if thread is None or thread is threading.current_thread():
            return fn(*args)

        async def on_loop() -> Any:
            result = fn(*args)
            return await result if asyncio.iscoroutine(result) else result

        return asyncio.run_coroutine_threadsafe(on_loop(), self._loop).result()

    def close(self) -> None:
        """Close the socket, then stop the loop and wait for its thread."""
        thread = self._thread
        if thread is None:
            return
        if self._transport is not None:
            self.call(self._transport.close)
        self._loop.call_soon_threadsafe(self._loop.stop)
        thread.join(timeout=5.0)
        self._thread = None

    # -- sending (loop thread) ------------------------------------------------

    def send_frame(self, frame: Dict[str, Any], addr: Tuple[str, int]) -> int:
        """Encode and send; returns the datagram size in bytes."""
        clock = self.lamport.tick()
        if (
            self.runner.obs is not None
            and frame["t"] in TRACED_FRAME_TYPES
            and wire.TRACE_KEY not in frame
        ):
            # Tracing on: attach the trace context without mutating the
            # caller's frame.
            frame = dict(frame)
            frame[wire.TRACE_KEY] = wire.make_trace(clock)
        data = wire.encode(frame)
        self._transport.sendto(data, addr)
        self.datagrams_sent += 1
        self.bytes_sent += len(data)
        return len(data)

    def send_to_peer(self, node_id: int, frame: Dict[str, Any]) -> bool:
        addr = self.directory.addr_of(node_id)
        if addr is None:
            return False
        self.peer_bytes_sent[node_id] += self.send_frame(frame, addr)
        return True

    async def request(
        self, dst: int, frame: Dict[str, Any], timeout: float
    ) -> Optional[Any]:
        """Send ``frame`` to ``dst`` and await its GOSSIP_RESP payload.

        ``None`` when ``dst`` has no address or no answer comes within
        ``timeout`` seconds; a timeout counts one drop against ``dst``.
        """
        obs = self.runner.obs
        started = _now() if obs is not None else 0.0
        pending = _Pending(dst, frame["layer"], self._loop.create_future())
        self._pending[frame["id"]] = pending
        try:
            if not self.send_to_peer(dst, frame):
                return None
            try:
                payload = await asyncio.wait_for(pending.reply, timeout)
            except asyncio.TimeoutError:
                self.peer_drops[dst] += 1
                if obs is not None:
                    obs.count("exchange_timeouts", layer=pending.layer)
                return None
            if obs is not None:
                obs.histogram("gossip_rtt", _now() - started, layer=pending.layer)
            return payload
        finally:
            self._pending.pop(frame["id"], None)

    @staticmethod
    def _frame_layer(frame: Dict[str, Any]) -> str:
        layer = frame.get("layer")
        return layer if isinstance(layer, str) else ""

    # -- receiving (loop thread) ----------------------------------------------

    def on_datagram(self, data: bytes, addr: Tuple[str, int]) -> None:
        self.datagrams_received += 1
        self.bytes_received += len(data)
        try:
            frame = wire.decode(data)
        except WireError:
            # Hostile or version-skewed input: counted, never fatal.
            self.malformed += 1
            return
        self.peer_bytes_received[frame["src"]] += len(data)
        if not self.seen.add(frame["id"]):
            self.duplicates += 1
            return
        self.directory.touch(frame["src"])
        trace = frame.get(wire.TRACE_KEY)
        if trace is not None:
            self.lamport.observe(trace["lc"])
            obs = self.runner.obs
            if obs is not None:
                obs.count("trace_frames", layer=self._frame_layer(frame))
        self._handle_frame(frame, addr)

    def _handle_frame(self, frame: Dict[str, Any], addr: Tuple[str, int]) -> None:
        handler = self._HANDLERS.get(frame["t"])
        if handler is not None:
            try:
                handler(self, frame, addr)
            except (WireError, SimulationError, KeyError, TypeError, ValueError):
                # A structurally valid frame with hostile field contents
                # (e.g. a GOSSIP_REQ for a layer we do not run) must not
                # kill the receive loop.
                self.malformed += 1

    def _on_hello(self, frame: Dict[str, Any], addr: Tuple[str, int]) -> None:
        host = frame.get("host", addr[0])
        port = frame.get("port", addr[1])
        self._add_peer(frame["src"], host, port)
        self.send_frame(self._peers_list_frame(), (host, port))

    def _on_peers_list(self, frame: Dict[str, Any], addr: Tuple[str, int]) -> None:
        rows = frame.get("peers", [])
        if not isinstance(rows, list):
            raise WireError("malformed PEERS_LIST")
        for row in rows:
            if not isinstance(row, list) or len(row) != 3:
                raise WireError(f"malformed PEERS_LIST row {row!r}")
            self._add_peer(*row)

    def _on_ping(self, frame: Dict[str, Any], addr: Tuple[str, int]) -> None:
        self.send_frame(
            wire.make_frame(wire.PONG, self.runner.node_id, self.next_id()),
            addr,
        )

    def _on_pong(self, frame: Dict[str, Any], addr: Tuple[str, int]) -> None:
        pass  # liveness already refreshed by the common touch() above

    def _on_gossip_req(self, frame: Dict[str, Any], addr: Tuple[str, int]) -> None:
        request = ExchangeRequest(
            layer=frame["layer"],
            sender=frame["src"],
            payload=frame["payload"],
            profile=frame.get("profile"),
        )
        local = self.directory.local
        if not local.has_protocol(request.layer):
            raise WireError(f"GOSSIP_REQ for unknown layer {request.layer!r}")
        self._check_gossip(request.layer, request.payload, (request.profile,))
        reply = local.protocol(request.layer).on_request(self.runner.make_context(), request)
        self.send_frame(
            wire.make_frame(
                wire.GOSSIP_RESP,
                self.runner.node_id,
                self.next_id(),
                re=frame["id"],
                layer=request.layer,
                payload=reply,
            ),
            addr,
        )

    def _on_gossip_resp(self, frame: Dict[str, Any], addr: Tuple[str, int]) -> None:
        """Resolve the request this answers, if it is an answer at all.

        Message ids are guessable, so a reply must also come from the node
        asked, and carry what the layer asked replies with (see
        :meth:`_check_gossip`). Anything else is malformed (counted by
        :meth:`_handle_frame`) and leaves the exchange to time out.
        """
        pending = self._pending.get(frame.get("re"))
        if pending is None or pending.reply.done():
            return
        if frame["src"] != pending.peer:
            raise WireError(f"GOSSIP_RESP from {frame['src']}, not the node asked")
        payload = frame.get("payload")
        self._check_gossip(pending.layer, payload)
        pending.reply.set_result(payload)

    def _check_gossip(self, layer: str, payload: Any, profiles: Tuple = ()) -> None:
        """Refuse a gossip payload ``layer`` could not absorb.

        It must be a list of descriptors, and each descriptor's profile, and
        each of ``profiles`` (a request's), one this stack ships on
        ``layer`` (:attr:`NetRunner.shipped_profiles`). A wire-valid map or
        a one-element coordinate would otherwise crash the ranking of the
        node that absorbs it, past every handler.
        """
        if type(payload) is not list or any(
            type(item) is not Descriptor for item in payload
        ):
            raise WireError(f"{layer} payload is not a descriptor list")
        shipped = self.runner.shipped_profiles[layer]
        try:
            known = all(profile in shipped for profile in profiles) and all(
                item.profile in shipped for item in payload
            )
        except TypeError:  # an unhashable profile: no coordinate is one
            known = False
        if not known:
            raise WireError(f"{layer} frame carries a profile this stack never ships")

    _HANDLERS: Dict[str, Callable[..., None]] = {
        wire.HELLO: _on_hello,
        wire.PEERS_LIST: _on_peers_list,
        wire.PING: _on_ping,
        wire.PONG: _on_pong,
        wire.GOSSIP_REQ: _on_gossip_req,
        wire.GOSSIP_RESP: _on_gossip_resp,
    }

    # -- membership helpers ----------------------------------------------------

    def _add_peer(self, node_id: Any, host: Any, port: Any) -> None:
        """Check one ``(id, host, port)`` row from the wire, then record it.

        A bad row raises :class:`WireError` (counted as malformed) and never
        reaches the directory: it would overwrite a real peer's address or
        count toward the full roster that ends the ``HELLO`` poll. The exact
        ``type`` checks refuse ``bool``: JSON ``true`` decodes to ``True``,
        which Python counts as ``1``.
        """
        if (
            type(node_id) is not int
            or not 0 <= node_id < self.runner.config.n_nodes
            or type(port) is not int
            or not 1 <= port <= 65535
            or not isinstance(host, str)
        ):
            raise WireError(f"bad peer row {[node_id, host, port]!r}")
        self.directory.add_peer(node_id, host, port)

    def _peers_list_frame(self) -> Dict[str, Any]:
        rows = [list(row) for row in self.directory.roster()]
        rows.append([self.runner.node_id, self.runner.bind_host, self.port])
        return wire.make_frame(
            wire.PEERS_LIST, self.runner.node_id, self.next_id(), peers=rows
        )

    def wire_stats(self) -> Dict[str, int]:
        return {
            "datagrams_sent": self.datagrams_sent,
            "datagrams_received": self.datagrams_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "malformed": self.malformed,
            "duplicates": self.duplicates,
        }

    def peer_stats(self) -> Dict[str, Dict[int, int]]:
        """Per-peer byte and drop counters (keys are peer node ids)."""
        return {
            "bytes_sent": dict(self.peer_bytes_sent),
            "bytes_received": dict(self.peer_bytes_received),
            "drops": dict(self.peer_drops),
        }


class NetTransport(TransportDecorator):
    """The transport seam's two gates over the liveness table.

    ``deliverable`` and ``reachable`` answer from the directory (an
    unreachable peer is simply not exchanged with — no RNG, no fault
    plane); the datagrams themselves are the runner's. Modelled-cost
    accounting (``record_exchange``) still lands on the wrapped in-memory
    ledger so per-layer byte series stay comparable with simulator runs.
    """

    def __init__(self, inner: Transport, directory: NetDirectory):
        super().__init__(inner)
        self.directory = directory

    def deliverable(self, ctx: RoundContext, dst: int, layer: str = "") -> bool:
        return self.directory.is_alive(dst)

    def reachable(self, ctx: RoundContext, dst: int) -> bool:
        return self.directory.is_alive(dst)


class NetRunner:
    """One swarm node satisfying the :class:`~repro.runtime.api.Runner` protocol.

    ``run_round`` performs one active gossip round on the endpoint's loop
    (both layers' exchanges, the liveness sweep, the pings); ``run`` paces
    rounds on the wall-clock ticker. The optional :attr:`on_round` callback
    fires on the loop after every round with ``(runner, round_index)`` and
    may return ``True`` to stop — the swarm harness uses it to publish
    status files and to honour the stop flag.
    """

    def __init__(self, config: RunnerConfig):
        self.config = config
        self.node_id = config.node_index
        self.bind_host = config.bind_host
        self.streams = RandomStreams(config.seed)
        self.stack = ElementaryStack(config.shape, config.n_nodes, config.gossip)
        #: Every profile a layer of this stack ships, in a descriptor or a
        #: request: none on peer sampling, a shape coordinate on the overlay.
        self.shipped_profiles = {
            PS_LAYER: frozenset((None,)),
            OVERLAY_LAYER: frozenset(map(self.stack.profile, range(config.n_nodes))),
        }
        self.node = Node(self.node_id)
        self.stack.attach(self.node, rank=self.node_id)
        self.directory = NetDirectory(self.node, self.stack)
        self.endpoint = NetEndpoint(self)
        self.transport = NetTransport(Transport(config.costs), self.directory)
        #: Seconds an exchange waits for its reply.
        self.reply_timeout = REPLY_TIMEOUT_FRACTION * config.round_interval
        self.round = 0
        self.on_round: Optional[Callable[["NetRunner", int], Optional[bool]]] = None
        #: Optional telemetry sink (:class:`~repro.obs.instrument.Instrument`).
        #: ``None`` disables all tracing: no trace field on the wire, no RTT
        #: timing, no flow tags — the zero-interference discipline of the
        #: in-process engines, applied to the live runtime.
        self.obs: Optional[Any] = None
        self._closed = False
        self._started = False

    # -- context --------------------------------------------------------------

    def make_context(self) -> RoundContext:
        return RoundContext(
            node=self.node,
            network=self.directory,
            transport=self.transport,
            streams=self.streams,
            round=self.round,
            obs=self.obs,
        )

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Bind the socket and join the swarm (idempotent)."""
        if self._started:
            return
        self.endpoint.start(self.bind_host, self.config.port)
        self._started = True
        if self.config.rendezvous:
            self.endpoint.call(self._join, parse_rendezvous(self.config.rendezvous))

    async def _join(self, rendezvous: Tuple[str, int]) -> None:
        """HELLO the rendezvous until at least one peer is known."""
        deadline = _now() + 30.0
        while not self.directory.peers:
            self.endpoint.send_frame(self._hello_frame(), rendezvous)
            await asyncio.sleep(HELLO_RETRY_INTERVAL)
            if _now() > deadline:
                raise SimulationError(
                    f"node {self.node_id}: no rendezvous response within 30s"
                )

    def _hello_frame(self) -> Dict[str, Any]:
        return wire.make_frame(
            wire.HELLO,
            self.node_id,
            self.endpoint.next_id(),
            host=self.bind_host,
            port=self.endpoint.port,
        )

    @property
    def port(self) -> int:
        """The actually-bound UDP port (after :meth:`start`)."""
        return self.endpoint.port

    # -- execution ------------------------------------------------------------

    def run_round(self) -> bool:
        """One active gossip round; returns ``True`` to request a stop."""
        self.start()
        return self.endpoint.call(self._round)

    async def _round(self) -> bool:
        """The round on the loop: each layer's halves around its reply."""
        obs = self.obs
        if obs is not None:
            obs.span_begin("round")
        self.directory.round = self.round
        self.transport.begin_round(self.round)
        # The membership poll: HELLO the rendezvous until the roster is full.
        if (
            self.config.rendezvous
            and len(self.directory.peers) < self.config.n_nodes - 1
        ):
            self.endpoint.send_frame(
                self._hello_frame(), parse_rendezvous(self.config.rendezvous)
            )
        ctx = self.make_context()
        for layer, protocol in self.node.stack():
            ctx.layer = layer
            opened = protocol.open_exchange(ctx)
            if opened is None:
                continue
            partner_id, buffer, _, profile = opened
            reply = None
            if buffer is not None:
                frame = wire.make_frame(
                    wire.GOSSIP_REQ,
                    self.node_id,
                    self.endpoint.next_id(),
                    layer=layer,
                    payload=buffer,
                    profile=profile,
                )
                reply = await self.endpoint.request(partner_id, frame, self.reply_timeout)
            protocol.close_exchange(ctx, opened, reply)
        for peer in self.directory.roster():
            self.endpoint.send_to_peer(
                peer[0],
                wire.make_frame(
                    wire.PING, self.node_id, self.endpoint.next_id()
                ),
            )
        self.round += 1
        if obs is not None:
            # Cumulative wire-plane gauges: cheap int reads, refreshed per
            # round so the /metrics endpoint tracks live traffic.
            stats = self.endpoint.wire_stats()
            obs.gauge("wire_bytes_sent", stats["bytes_sent"])
            obs.gauge("wire_bytes_received", stats["bytes_received"])
            obs.gauge("wire_datagrams_sent", stats["datagrams_sent"])
            obs.gauge("wire_malformed", stats["malformed"])
            obs.gauge("peers_known", len(self.directory.peers))
            obs.gauge("lamport_clock", self.endpoint.lamport.read())
            obs.span_end("round")
        stop = False
        if self.on_round is not None:
            stop = bool(self.on_round(self, self.round - 1))
        return stop

    def run(self, max_rounds: int) -> int:
        """Run up to ``max_rounds`` wall-clock-paced rounds."""
        if max_rounds < 0:
            raise SimulationError(f"max_rounds must be >= 0, got {max_rounds}")
        self.start()
        executed = 0
        for _ in range(max_rounds):
            began = _now()
            stop = self.run_round()
            executed += 1
            if stop:
                break
            remaining = self.config.round_interval - (_now() - began)
            if remaining > 0:
                _sleep(remaining)
        return executed

    # -- introspection ---------------------------------------------------------

    def neighbors(self) -> List[int]:
        """Current overlay neighbours of the local node, read on the loop."""
        return self.endpoint.call(self.node.protocol(OVERLAY_LAYER).neighbors)

    def wire_stats(self) -> Dict[str, int]:
        return self.endpoint.wire_stats()

    def peer_stats(self) -> Dict[str, Dict[int, int]]:
        return self.endpoint.peer_stats()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.endpoint.close()

    def __enter__(self) -> "NetRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
