"""The protocol interface executed by the round engine — and the one exchange.

:class:`Protocol` is what the engines step; :class:`GossipProtocol` is the
push-pull gossip exchange every layer of the paper's Figure 1 is an
instance of, written once: a layer supplies a partner rule, an offer and an
absorb rule, and inherits the transport seam, the refusal rule, the byte
ledger, the counters and the flow tagging.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Tuple

from repro.sim.transport import ExchangeRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import RoundContext
    from repro.sim.node import Node

#: What the opening half hands the closing half: ``(partner_id, buffer,
#: kept, wire_profile)`` — the request's payload and profile, and what the
#: absorb rule keeps; ``buffer`` is ``None`` when the gate refused.
Opened = Tuple[int, Any, Any, Any]


class Protocol(ABC):
    """One layer of a node's protocol stack.

    The engine calls :meth:`step` once per round per live node (the *active
    thread* of a gossip protocol). Passive behaviour — answering a partner's
    gossip — is modelled as a direct method call on the partner's protocol
    instance, exactly as PeerSim's cycle-driven mode does; the transport is
    still informed of both message directions for bandwidth accounting.
    """

    #: The hosting node, set by :meth:`~repro.sim.node.Node.attach` (and
    #: ``replace``): where a layer reads its own siblings. A passive half
    #: runs under the requester's context, so ``ctx.node`` is not it there.
    #: A weak proxy: a strong back-reference would make every node a cycle
    #: with its protocols, and a dropped network would wait for the cyclic
    #: collector instead of being freed at once.
    node: Optional["Node"] = None

    @abstractmethod
    def step(self, ctx: "RoundContext") -> None:
        """Execute one active round on behalf of ``ctx.node``."""

    def neighbors(self) -> Iterable[int]:
        """Node ids this protocol currently considers its overlay neighbours.

        Used by observers to materialize the realized overlay graph; the
        default is an empty relation for protocols that do not define one.
        """
        return ()

    def on_request(
        self, ctx: "RoundContext", request: "ExchangeRequest"
    ) -> Optional[Any]:
        """Answer one gossip request arriving through the transport seam.

        The passive half of the protocol: transports route every incoming
        :class:`~repro.sim.transport.ExchangeRequest` here and send the
        returned payload back as the reply. The default refuses (``None``,
        i.e. no reply — the requester treats it as a drop);
        :class:`GossipProtocol` answers with the passive half of the exchange.
        """
        return None

    def on_join(self, ctx: "RoundContext") -> None:
        """Hook invoked when the hosting node (re)joins the network."""

    def forget(self, node_id: int) -> None:
        """Drop any state referring to ``node_id`` (failure detector signal)."""


class GossipProtocol(Protocol):
    """One push-pull gossip exchange, instantiated per layer by its hooks.

    The active half (:meth:`step`) and its passive mirror
    (:meth:`on_request`) are the whole protocol. ``step`` is the opening
    half (:meth:`open_exchange`: begin the round, partner, gate, offer) and
    the closing half (:meth:`close_exchange`: refusal rule, ledger,
    counters, flow, absorb) composed around ``transport.exchange``; the
    sharded BSP engine calls the two halves and the partner's
    :meth:`on_request` in three barriered phases instead. A layer only says

    - :meth:`_begin_round` — what ages or is harvested when its turn starts,
      and whether it has anything to gossip about at all;
    - :meth:`_choose_partner` — its partner rule;
    - :meth:`_offer` — the buffer it ships, plus whatever its absorb rule
      wants to remember of the offer (the shipped buffer for the swapper
      layers, the helper feed for the ranking layers);
    - :meth:`_absorb` — its merge rule;
    - :meth:`_unreachable` — what a partner the transport calls
      unreachable means.

    The order of the active half is a contract the committed digests depend
    on, and it holds across the cut between the halves: nothing is drawn
    from the layer's stream between :meth:`_begin_round` and the
    ``deliverable`` gate except by the partner rule, and nothing after the
    offer until the closing half absorbs the reply. A refused gate
    and a ``None`` reply are one refusal: the layer loses its turn, leaves
    no trace in the ledger or the counters, and calls :meth:`_unreachable`
    only when ``transport.reachable`` is ``False`` for the partner.

    The defaults of :meth:`_begin_round` and :meth:`_oldest_live` serve
    layers whose state is one :class:`~repro.gossip.views.PartialView` at
    ``self.view``.
    """

    #: Descriptor-list payloads carry provenance tags for the flow tracer;
    #: layers that gossip tables instead (the port layers) opt out.
    traces_flow = True
    #: What the passive half ranks its reply on, shipped as
    #: ``ExchangeRequest.profile``: the requester's coordinate (Vicinity,
    #: T-Man) or its have-digest — a tuple naming what it already holds, so
    #: the reply can fill the gaps (UO1: the ids in its view; UO2: the
    #: components it has a contact in). Read after :meth:`_offer`. ``None``
    #: gets the uninformed reply.
    wire_profile: Any = None
    #: A have-digest is traffic of its own (a coordinate is already in the
    #: advert the buffer leads with): the ledger charges its entries.
    wire_profile_is_digest = False

    def __init__(self, node_id: int, layer: str):
        self.node_id = node_id
        self.layer = layer
        # Pre-resolved (name, layer) counter keys: the hot path hands these
        # to Instrument.count_key so no tuple is allocated per increment.
        self._k_exchanges = ("exchanges", layer)
        self._k_sent = ("descriptors_sent", layer)
        self._k_received = ("descriptors_received", layer)
        self._k_dead = ("dead_purged", layer)
        self._k_replacements = ("view_replacements", layer)
        self._k_churn = ("descriptor_churn", layer)

    # -- the exchange -------------------------------------------------------------

    def step(self, ctx: "RoundContext") -> None:
        """The active half: open the exchange, send it, close it on the reply."""
        opened = self.open_exchange(ctx)
        if opened is not None:
            partner_id, buffer, _, profile = opened
            reply = None
            if buffer is not None:
                request = ExchangeRequest(self.layer, self.node_id, buffer, profile)
                reply = ctx.transport.exchange(ctx, partner_id, request)
            self.close_exchange(ctx, opened, reply)

    def open_exchange(self, ctx: "RoundContext") -> Optional[Opened]:
        """The opening half: begin the round, pick a partner, pass the gate, offer.

        ``None`` when the layer sits the round out, else the
        :data:`Opened` record for :meth:`close_exchange`, with
        ``buffer=None`` when the ``deliverable`` gate refused (nothing was
        offered then). ``wire_profile`` is read after the offer.
        """
        if not self._begin_round(ctx):
            return None
        partner_id = self._choose_partner(ctx)
        if partner_id is None:
            return None
        if not ctx.transport.deliverable(ctx, partner_id, self.layer):
            return partner_id, None, None, None
        obs = ctx.obs
        flow = obs.flow if obs is not None and self.traces_flow else None
        buffer, kept = self._offer(ctx, flow, partner_id, None)
        return partner_id, buffer, kept, self.wire_profile

    def close_exchange(self, ctx: "RoundContext", opened: Opened, reply: Any) -> None:
        """The closing half: the refusal rule, or ledger, counters, flow, absorb.

        ``reply`` is the partner's answer to ``opened``, ``None`` for a
        refused gate or an unanswered request.
        """
        partner_id, buffer, kept, profile = opened
        if reply is None:
            # Refused at the gate, or sent and never answered: either way
            # the layer loses its turn. A lost exchange says nothing about
            # the partner, so only one the transport calls unreachable (a
            # partition cut, a peer the liveness belief has lost) is let go.
            if not ctx.transport.reachable(ctx, partner_id):
                self._unreachable(partner_id)
            return
        ctx.transport.record_exchange(
            self.layer,
            len(buffer),
            len(reply),
            len(profile) if self.wire_profile_is_digest else 0,
        )
        obs = ctx.obs
        if obs is not None:
            obs.count_key(self._k_exchanges)
            obs.count_key(self._k_sent, len(buffer))
            obs.count_key(self._k_received, len(reply))
            if self.traces_flow and obs.flow is not None:
                obs.flow.on_received(
                    self.layer, ctx.round, self.node_id, partner_id, reply
                )
        self._absorb(ctx, kept, reply)

    def on_request(self, ctx: "RoundContext", request: ExchangeRequest) -> Any:
        """The passive half: reply with an offer, then absorb the request.

        The only passive entry point. ``ctx`` is whatever the transport
        built — the requester's context on the in-memory transport, the
        receiver's own on the live swarm — so the wire sender is read from
        ``request``, never from ``ctx.node``.
        """
        obs = ctx.obs
        flow = obs.flow if obs is not None and self.traces_flow else None
        reply, kept = self._offer(ctx, flow, request.sender, request)
        received = request.payload
        if obs is not None:
            obs.count_key(self._k_sent, len(reply))
            obs.count_key(self._k_received, len(received))
            if flow is not None:
                flow.on_received(
                    self.layer, ctx.round, self.node_id, request.sender, received
                )
        self._absorb(ctx, kept, received)
        return reply

    # -- what a layer supplies --------------------------------------------------------

    def _begin_round(self, ctx: "RoundContext") -> bool:
        """Age (and harvest) at the start of the turn; ``False`` sits it out.

        Runs before the partner rule, so a layer with nothing to gossip
        about draws nothing from its stream.
        """
        self.view.increase_age()
        return True

    @abstractmethod
    def _choose_partner(self, ctx: "RoundContext") -> Optional[int]:
        """The node id to gossip with this round, or ``None`` to skip it."""

    @abstractmethod
    def _offer(
        self,
        ctx: "RoundContext",
        flow: Any,
        peer_id: int,
        request: Optional[ExchangeRequest],
    ) -> Tuple[Any, Any]:
        """``(buffer, kept)``: what to ship to ``peer_id`` and what
        :meth:`_absorb` gets back as its second argument.

        ``request`` is the incoming request on the passive half and
        ``None`` on the active one; ``flow`` is the attached flow tracer,
        if any: while there is one the self-advertisement ships
        ``tagged(ctx.round)``.
        """

    @abstractmethod
    def _absorb(self, ctx: "RoundContext", kept: Any, received: Any) -> None:
        """Merge the partner's buffer into this node's state."""

    def _unreachable(self, partner_id: int) -> None:
        """The transport calls the partner unreachable — cut off, not dead.

        Drop it so the partner rule does not retry it forever, but leave no
        tombstone: it may legitimately return once the link heals.
        """
        self.forget(partner_id)

    # -- shared partner-rule and harvest bodies ---------------------------------------

    def _oldest_live(
        self,
        ctx: "RoundContext",
        valid: Optional[Callable[[Any, int], bool]] = None,
    ) -> Any:
        """The oldest view entry that is alive (and ``valid``), healing as it goes.

        A failed probe acts as failure detection: an entry ``ctx.peers``
        calls dead is purged with a tombstone, so stale copies gossiped back
        by third parties cannot resurrect it, and counted as
        ``dead_purged``. A live entry failing ``valid(ctx.peers, node_id)``
        is merely dropped — it is not dead and may qualify again later.
        Returns the descriptor, or ``None`` once the view is empty.
        """
        view = self.view
        peers = ctx.peers
        while len(view):
            candidate = view.oldest()
            node_id = candidate.node_id
            if not peers.is_alive(node_id):
                view.purge(node_id)
                if ctx.obs is not None:
                    ctx.obs.count_key(self._k_dead)
            elif valid is None or valid(peers, node_id):
                return candidate
            else:
                view.remove(node_id)
        return None

    def _peer_adverts(self, ctx: "RoundContext", helper_layer: str) -> Iterator[Any]:
        """Fresh self-descriptors of the helper layer's neighbours.

        Yields what ``ctx.peers.advert`` says every live, reachable
        neighbour of this node's ``helper_layer`` advertises on this layer
        (skipping those that do not run it) — the simulator idiom for
        knowledge piggybacked on the helper's gossip. The helper is read
        on :attr:`node`, not ``ctx.node``: in a passive half on the
        in-memory transport the context is the requester's.
        """
        helper = self.node.find(helper_layer)
        if helper is None:
            return
        peers, transport, layer = ctx.peers, ctx.transport, self.layer
        for node_id in helper.neighbors():
            if node_id == self.node_id or not peers.is_alive(node_id):
                continue
            if not transport.reachable(ctx, node_id):
                continue  # peeking state across a partition cut would leak it
            advert = peers.advert(node_id, layer)
            if advert is not None:
                yield advert
