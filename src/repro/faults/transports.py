"""Fault injection as stackable Transport decorators.

Each decorator wraps an inner :class:`~repro.sim.transport.Transport` and
vetoes (or delays) exchanges in :meth:`deliverable`, chaining to the inner
transport otherwise. Decorators compose —
``LossTransport(LatencyTransport(base))`` — and work identically over the
round engine, the wire-codec loopback, and the UDP runtime's local
transport. This is the only fault path: protocol code never consults a
fault plane, it asks the transport.

``tests/runtime/test_fault_transport.py`` pins a mixed
partition/loss/latency schedule through :class:`FaultTransport` to golden
digests and drop/delay counts: every link-fault coin comes from the
``("linkfaults", layer, node)`` streams, so a seeded run is reproducible.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.faults.plane import FaultPlane
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport, TransportDecorator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import RoundContext

__all__ = [
    "TransportDecorator",
    "FaultTransport",
    "LossTransport",
    "LatencyTransport",
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


class LossTransport(TransportDecorator):
    """Memoryless per-exchange loss as a decorator.

    Every delivery attempt independently fails with probability ``rate``;
    failures are accounted as ``"loss"`` drops on the inner ledger. The
    caller supplies the RNG (typically a named stream) so seeded runs are
    reproducible.
    """

    def __init__(self, inner: Transport, rate: float, rng: random.Random):
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"loss rate must be in [0, 1), got {rate}")
        super().__init__(inner)
        self.rate = rate
        self.rng = rng

    def deliverable(self, ctx: "RoundContext", dst: int, layer: str = "") -> bool:
        if self.rate > 0.0 and self.rng.random() < self.rate:
            self.inner.record_dropped(layer, reason="loss")
            return False
        return self.inner.deliverable(ctx, dst, layer)


class LatencyTransport(TransportDecorator):
    """Constant extra latency as a decorator.

    Latency at or beyond ``timeout_latency`` turns the exchange into a
    ``"timeout"`` drop (the synchronous round model cannot wait past a
    round boundary — same rule as the fault plane); anything less is
    accounted as a delayed-but-completed exchange.
    """

    def __init__(
        self, inner: Transport, latency: float, timeout_latency: float = 1.0
    ):
        if latency < 0.0:
            raise ConfigurationError(f"latency must be >= 0, got {latency}")
        if timeout_latency <= 0.0:
            raise ConfigurationError(
                f"timeout_latency must be > 0, got {timeout_latency}"
            )
        super().__init__(inner)
        self.latency = latency
        self.timeout_latency = timeout_latency

    def deliverable(self, ctx: "RoundContext", dst: int, layer: str = "") -> bool:
        if self.latency >= self.timeout_latency:
            self.inner.record_dropped(layer, reason="timeout")
            return False
        if self.latency > 0.0:
            self.inner.record_delayed(layer, self.latency)
        return self.inner.deliverable(ctx, dst, layer)
