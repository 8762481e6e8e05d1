"""Fault injection as a stackable Transport decorator.

:class:`FaultTransport` wraps an inner :class:`~repro.sim.transport.Transport`
and vetoes (or delays) exchanges in :meth:`deliverable` as the
:class:`~repro.faults.plane.FaultPlane` dictates — partitions, and per-link
loss, latency and timeouts with per-layer accounting — chaining to the inner
transport otherwise. It stacks over the round engine's ledger, the
wire-codec loopback, and the UDP runtime's local transport alike. This is
the only fault path: protocol code never consults a fault plane, it asks
the transport.

``tests/runtime/test_fault_transport.py`` pins a mixed
partition/loss/latency schedule through :class:`FaultTransport` to golden
digests and drop/delay counts: every link-fault coin comes from the
``("linkfaults", layer, node)`` streams, so a seeded run is reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.plane import FaultPlane
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport, TransportDecorator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import RoundContext

__all__ = [
    "TransportDecorator",
    "FaultTransport",
]


class FaultTransport(TransportDecorator):
    """A :class:`~repro.faults.plane.FaultPlane` as a transport decorator.

    Draws link-fault coins from the ``("linkfaults", layer, src)`` streams
    and hands the plane the wrapped transport for drop/delay accounting.
    While the plane has no active fault the decorator adds one attribute
    read per exchange and draws nothing.
    """

    def __init__(self, inner: Transport, plane: FaultPlane, streams: RandomStreams):
        super().__init__(inner)
        self.plane = plane
        self.streams = streams

    def deliverable(self, ctx: "RoundContext", dst: int, layer: str = "") -> bool:
        if self.plane.active:
            if not layer and ctx is not None:
                layer = ctx.layer
            src = ctx.node.node_id if ctx is not None else -1
            rng = self.streams.stream("linkfaults", layer, src)
            if not self.plane.exchange_ok(
                rng, src, dst, transport=self.inner, layer=layer
            ):
                return False
        return self.inner.deliverable(ctx, dst, layer)

    def reachable(self, ctx: "RoundContext", dst: int) -> bool:
        if self.plane.active:
            src = ctx.node.node_id if ctx is not None else -1
            if not self.plane.reachable(src, dst):
                return False
        return self.inner.reachable(ctx, dst)
