"""Lamport logical clocks for the live runtime.

The trace context carried by the wire codec (:mod:`repro.runtime.wire`)
must order events *across* processes without trusting wall clocks — the
swarm runs on one machine today, but the design treats every node as if
its clock could be arbitrarily skewed (the standard SoS assumption).  A
Lamport clock gives exactly the guarantee the flow tracer needs: if
event ``a`` causally precedes event ``b``, then ``L(a) < L(b)``.  The
converse does not hold, which is why per-layer propagation *latencies*
stay round-denominated (see :mod:`repro.obs.flow`) and the Lamport value
is used only for cross-node event ordering.

The clock is purely logical — it never reads the wall clock — so the
determinism lint (:mod:`repro.lint.determinism`) has nothing to sanction
here; a future hybrid logical clock that read one would need a reviewed
``# repro-lint: disable=DET003`` pragma at its read, as ``runtime/net.py``'s
``_now`` has.

Thread-safety matters here: the asyncio receive loop observes remote
clocks on its own daemon thread while the round loop ticks on send.
"""

from __future__ import annotations

import threading

__all__ = ["LamportClock"]


class LamportClock:
    """A thread-safe Lamport logical clock.

    ``tick()`` advances the clock for a local event (a send); call
    ``observe(remote)`` when a message stamped ``remote`` arrives — the
    clock jumps to ``max(local, remote) + 1`` so causality is never
    inverted.  ``read()`` returns the current value without advancing.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError(f"Lamport clock cannot start negative: {start}")
        self._lock = threading.Lock()
        self._value = int(start)

    def read(self) -> int:
        """Current clock value (does not advance)."""
        with self._lock:
            return self._value

    def tick(self) -> int:
        """Advance for a local event; returns the new value."""
        with self._lock:
            self._value += 1
            return self._value

    def observe(self, remote: int) -> int:
        """Merge a remote clock value; returns the new local value."""
        with self._lock:
            self._value = max(self._value, int(remote)) + 1
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LamportClock({self.read()})"
