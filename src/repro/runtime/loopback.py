"""The loopback transport: every exchange through the wire codec.

:class:`LoopbackTransport` is the deterministic in-memory twin of the UDP
runtime. It routes exchanges exactly like the sim transport — same partner
dispatch, same accounting ledger — but first serializes the request and the
reply through :mod:`repro.runtime.wire` (encode → bytes → decode), so every
payload a layer sends experiences the full codec round-trip a real datagram
would: a gossip buffer crosses as one ``{"__D":[row, …]}`` table, one
``[id, age, profile, minted_round]`` row per descriptor. Because the round
schedule and the RNG streams are untouched, a round run over this decorator
must produce a **byte-identical overlay digest** to the plain transport for
the same config — the digest gate in ``tests/runtime/test_loopback.py``.
Any codec lossiness (a tuple profile come back a list, a row field dropped
or shifted, provenance corrupted) surfaces there as a digest mismatch
instead of a subtle overlay deformity in a live swarm.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.runtime import wire
from repro.sim.transport import ExchangeRequest, Transport, TransportDecorator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import RoundContext


class LoopbackTransport(TransportDecorator):
    """Wire-codec round-trip on every exchange, in memory, deterministic.

    Wraps the accounting :class:`~repro.sim.transport.Transport`; the
    ``deliverable`` gate and all ledgers pass straight through, so fault
    planes and byte series behave exactly as on the round engine. The
    transport also keeps its own wire-level counters (frames and datagram
    bytes actually serialized) — the honest size of the traffic a UDP swarm
    would emit, as opposed to the ledger's modelled costs.
    """

    def __init__(self, inner: Transport):
        super().__init__(inner)
        self._ids: Dict[int, wire.MsgIdSource] = {}
        self.wire_frames = 0
        self.wire_bytes = 0

    def _msg_id(self, src: int) -> str:
        source = self._ids.get(src)
        if source is None:
            source = self._ids[src] = wire.MsgIdSource(src)
        return source.next()

    def _roundtrip(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        data = wire.encode(frame)
        self.wire_frames += 1
        self.wire_bytes += len(data)
        return wire.decode(data)

    def exchange(
        self, ctx: "RoundContext", dst: int, request: ExchangeRequest
    ) -> Optional[Any]:
        req_frame = self._roundtrip(
            wire.make_frame(
                wire.GOSSIP_REQ,
                src=request.sender,
                msg_id=self._msg_id(request.sender),
                layer=request.layer,
                payload=request.payload,
                profile=request.profile,
            )
        )
        decoded = ExchangeRequest(
            layer=req_frame["layer"],
            sender=req_frame["src"],
            payload=req_frame["payload"],
            profile=req_frame["profile"],
        )
        reply = self.inner.exchange(ctx, dst, decoded)
        if reply is None:
            return None
        resp_frame = self._roundtrip(
            wire.make_frame(
                wire.GOSSIP_RESP,
                src=dst,
                msg_id=self._msg_id(dst),
                layer=request.layer,
                payload=reply,
            )
        )
        return resp_frame["payload"]
