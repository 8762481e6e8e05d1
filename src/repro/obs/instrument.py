"""The unified instrumentation protocol.

:class:`Instrument` is the one observation interface the whole runtime is
written against — round-boundary measuring hooks, the structured event log
and the fault subsystem's recovery verifier are all facets of it:

========================  =====================================================
method                    role
========================  =====================================================
``observe``               per-round measurement hook (may request a stop)
``emit``                  typed lifecycle events (:mod:`repro.obs.events`)
``count``                 monotonic per-layer counters (messages, churn)
``gauge``                 last-value per-layer gauges (degrees, occupancy)
``histogram``             bucketed per-layer distributions (gossip RTT)
``span_begin``/``span_end``  wall-clock spans (round timing)
========================  =====================================================

Every method is a no-op returning a falsy value, so a subclass implements
only the facets it cares about:
:class:`~repro.core.convergence.ConvergenceTracker` observes rounds (the
one place legality is judged),
:class:`~repro.obs.recovery.RecoveryObserver` gauges the dead-descriptor
fraction each round, and :class:`~repro.obs.collector.Collector`
implements everything. Hot paths
guard each call with ``if ctx.obs is not None`` — with no collector
attached, instrumentation costs one attribute check and performs zero
allocations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import Network


class Instrument:
    """Base of every measuring hook; all methods default to no-ops.

    Subclasses attached as engine observers get :meth:`observe` called
    after the node steps of each round; subclasses wired as the engine's
    ``obs`` sink additionally receive ``count``/``gauge``/``emit``/span
    calls from inside the protocol layers.
    """

    # Stateless by construction; stateful subclasses simply don't declare
    # __slots__ and get a __dict__.
    __slots__ = ()

    #: Causal propagation tracer (:class:`~repro.obs.flow.FlowTracer`), or
    #: ``None``. A class-level default so every instrument — including the
    #: no-op base — answers the hot path's ``obs.flow`` read without a
    #: ``getattr`` dance; sinks that trace set an instance attribute.
    flow: Optional[object] = None

    #: Whether the engine should time each layer's protocol steps as
    #: ``layer:<name>`` spans (the ``repro report --profile`` view). Off by
    #: default: per-layer spans cost two clock reads per (node, layer) step.
    profile_layers: bool = False

    def observe(self, network: "Network", round_index: int) -> bool:
        """Record measurements for ``round_index``; return ``True`` to stop."""
        return False

    def emit(self, kind: str, **details: Any) -> Optional[object]:
        """Record one lifecycle event (see :mod:`repro.obs.events`)."""
        return None

    def count(self, name: str, value: int = 1, layer: str = "") -> None:
        """Add ``value`` to the monotonic counter ``name`` for ``layer``."""

    def count_key(self, key: "tuple", value: int = 1) -> None:
        """Add ``value`` to the counter for a pre-resolved ``(name, layer)``.

        The hot-path twin of :meth:`count`: protocol layers build their
        ``(name, layer)`` key tuples once at construction time, so the
        per-exchange call passes a ready key positionally instead of
        allocating a tuple and binding a keyword argument per increment.
        """

    def gauge(self, name: str, value: float, layer: str = "") -> None:
        """Set the last-value gauge ``name`` for ``layer``."""

    def histogram(self, name: str, value: float, layer: str = "") -> None:
        """Record ``value`` into the bucketed distribution ``name``.

        Used for wire-level measurements whose *shape* matters — gossip
        round-trip times — where a counter would lose the tail and a gauge
        the history. The collector buckets every histogram on
        :data:`~repro.obs.collector.RTT_BUCKETS`.
        """

    def span_begin(self, name: str) -> None:
        """Open the wall-clock span ``name`` (collector-timed)."""

    def span_end(self, name: str) -> None:
        """Close the wall-clock span ``name``."""

