"""Synchronous transport with per-layer byte accounting — and the seam.

Gossip exchanges in the cycle-driven model are synchronous request/response
pairs, and the paper's Fig. 4 needs bytes and messages per protocol layer
per round: the transport is that ledger.

It is also the **engine seam** — the only place an exchange can be vetoed
or transformed. Layers ask :meth:`Transport.deliverable` whether an
exchange with a partner can happen (the fault gate) and route their
request/response through :meth:`Transport.exchange`. On this in-memory
transport ``deliverable`` always succeeds and ``exchange`` is a direct
method call on the partner's protocol instance (as in PeerSim); decorators
stack fault injection (:mod:`repro.faults.transports`) or the wire codec
(:class:`repro.runtime.loopback.LoopbackTransport`) on top, and
:mod:`repro.runtime.net` substitutes real UDP sockets. The layer code is
identical over all of them.

``exchange`` may return ``None`` — the request was sent but no reply
arrived (a real-network timeout). The in-memory transport never does; a
layer must treat ``None`` exactly like a failed ``deliverable`` check.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.sim.config import TransportCosts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import RoundContext


@dataclass(frozen=True)
class ExchangeRequest:
    """One gossip request crossing the transport seam.

    ``payload`` is the layer's buffer (descriptor list, binding map, ...);
    ``profile`` optionally carries the requester's proximity coordinate for
    layers whose passive side ranks on it (vicinity, T-Man, the core
    protocol). The sim transport hands the object through untouched; wire
    transports serialize it with :mod:`repro.runtime.wire`.
    """

    layer: str
    sender: int
    payload: Any
    profile: Any = None


class Transport:
    """Records every message of the simulation, bucketed by layer and round."""

    def __init__(self, costs: Optional[TransportCosts] = None):
        self.costs = costs or TransportCosts()
        self._bytes: Dict[str, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self._messages: Dict[str, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
        # Fault-plane accounting: exchanges that never completed (partition
        # cuts, lossy links, timeouts), by cause, and exchanges that completed
        # late (degraded links), bucketed like the byte series.
        self._drop_reasons: Dict[str, int] = defaultdict(int)
        self._delayed: Dict[str, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self.round = 0

    def begin_round(self, round_index: int) -> None:
        """Called by the engine at each round boundary."""
        self.round = round_index

    # -- the exchange seam ----------------------------------------------------

    def deliverable(self, ctx: "RoundContext", dst: int, layer: str = "") -> bool:
        """Can ``ctx.node`` complete an exchange with ``dst`` on ``layer``?

        The pre-exchange fault gate: layers call this *before* building a
        buffer, so a dropped exchange draws nothing from the layer's RNG
        stream — the invariant the digest gate depends on. The in-memory
        transport has no faults of its own; decorators and wire transports
        override this with loss/latency/plane checks.
        """
        return True

    def exchange(
        self, ctx: "RoundContext", dst: int, request: ExchangeRequest
    ) -> Optional[Any]:
        """Deliver ``request`` to ``dst`` and return its reply payload.

        In-memory routing: a direct call on the partner's protocol instance,
        as in PeerSim's cycle-driven mode — the passive side runs inside the
        active side's step, with the *requester's* context. ``None`` means
        the exchange failed after the ``deliverable`` gate passed (only
        possible on real-network transports).
        """
        partner = ctx.network.node(dst)
        return partner.protocol(request.layer).on_request(ctx, request)

    def reachable(self, ctx: "RoundContext", dst: int) -> bool:
        """Whether ``dst`` is on this node's side of any active partition.

        The read-side twin of :meth:`deliverable`: harvest-style shortcuts
        that inspect a peer's state directly (a simulator idiom for
        piggybacked knowledge) must not leak state across a cut. No RNG is
        drawn and nothing is accounted — reachability is a topology
        question, not a delivery attempt.
        """
        return True

    # -- accounting -----------------------------------------------------------

    def record_message(
        self, layer: str, n_descriptors: int, n_digest_entries: int = 0
    ) -> int:
        """Account one message of ``n_descriptors`` entries (and a
        have-digest of ``n_digest_entries``) on ``layer``.

        Returns the number of bytes charged.
        """
        size = self.costs.message_bytes(n_descriptors, n_digest_entries)
        self._bytes[layer][self.round] += size
        self._messages[layer][self.round] += 1
        return size

    def record_exchange(
        self,
        layer: str,
        request_descriptors: int,
        response_descriptors: int,
        request_digest_entries: int = 0,
    ) -> int:
        """Account one push-pull exchange (a request, with the have-digest
        it carried if any, and its response)."""
        total = self.record_message(layer, request_descriptors, request_digest_entries)
        total += self.record_message(layer, response_descriptors)
        return total

    def record_dropped(self, reason: str) -> None:
        """Account one exchange lost to the fault plane.

        ``reason`` is a free-form tag (``"partition"``, ``"loss"``,
        ``"timeout"``) aggregated over the whole run.
        """
        self._drop_reasons[reason] += 1

    def record_delayed(self, layer: str) -> None:
        """Account one exchange that completed late on a degraded link."""
        self._delayed[layer][self.round] += 1

    # -- queries -------------------------------------------------------------

    def layers(self) -> List[str]:
        return sorted(self._bytes)

    def total_bytes(self, layer: Optional[str] = None) -> int:
        if layer is not None:
            return sum(self._bytes.get(layer, {}).values())
        return sum(sum(per_round.values()) for per_round in self._bytes.values())

    def total_messages(self, layer: Optional[str] = None) -> int:
        if layer is not None:
            return sum(self._messages.get(layer, {}).values())
        return sum(sum(per_round.values()) for per_round in self._messages.values())

    def bytes_series(self, layer: str, rounds: int) -> List[int]:
        """Per-round byte counts for ``layer`` over ``range(rounds)``."""
        per_round = self._bytes.get(layer, {})
        return [per_round.get(r, 0) for r in range(rounds)]

    def drop_reasons(self) -> Dict[str, int]:
        """Drop counts by cause over the whole run."""
        return dict(self._drop_reasons)

    def total_delayed(self, layer: Optional[str] = None) -> int:
        if layer is not None:
            return sum(self._delayed.get(layer, {}).values())
        return sum(sum(per_round.values()) for per_round in self._delayed.values())

    def reset(self) -> None:
        self._bytes.clear()
        self._messages.clear()
        self._drop_reasons.clear()
        self._delayed.clear()
        self.round = 0


class TransportDecorator:
    """Delegating base for stackable transport decorators.

    Subclasses override :meth:`deliverable` and/or :meth:`exchange` to add
    behaviour at the seam (fault injection in
    :mod:`repro.faults.transports`, wire-codec round-trips in
    :mod:`repro.runtime.loopback`); everything else — the accounting calls,
    ``begin_round``, the query surface — resolves through ``__getattr__``
    to the wrapped transport, so readers of ``deployment.transport`` see
    one unified ledger no matter how many decorators are stacked. The one
    accounting call made on every exchange, :meth:`record_exchange`, is
    forwarded explicitly instead of missing the attribute lookup first.
    """

    def __init__(self, inner: Transport):
        self.inner = inner

    def __getattr__(self, name: str) -> Any:
        # Only reached for attributes not defined on the decorator itself.
        return getattr(self.inner, name)

    def deliverable(self, ctx: "RoundContext", dst: int, layer: str = "") -> bool:
        return self.inner.deliverable(ctx, dst, layer)

    def record_exchange(
        self,
        layer: str,
        request_descriptors: int,
        response_descriptors: int,
        request_digest_entries: int = 0,
    ) -> int:
        return self.inner.record_exchange(
            layer, request_descriptors, response_descriptors, request_digest_entries
        )

    def exchange(
        self, ctx: "RoundContext", dst: int, request: ExchangeRequest
    ) -> Optional[Any]:
        return self.inner.exchange(ctx, dst, request)

    def reachable(self, ctx: "RoundContext", dst: int) -> bool:
        return self.inner.reachable(ctx, dst)
