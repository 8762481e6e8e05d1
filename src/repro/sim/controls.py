"""Round-boundary hooks: controls (mutate) and observers (measure).

These mirror PeerSim's ``Control`` components. Controls run before the node
steps of a round and may mutate the population or protocol state (churn,
reconfiguration triggers); observers run after the node steps and record
measurements, optionally requesting an early stop.

Controls are canonical here; the measuring side is the
:class:`~repro.obs.instrument.Instrument` protocol.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.network import Network

__all__ = [
    "Actuator",
    "CallbackControl",
    "Control",
    "ScheduledControl",
]


class Control:
    """Mutating round-boundary hook; override either method."""

    def before_round(self, network: Network, round_index: int) -> None:
        """Called before the node steps of ``round_index``."""

    def after_round(self, network: Network, round_index: int) -> None:
        """Called after the node steps (and observers) of ``round_index``."""


class Actuator:
    """Closed-loop hook run in the engine's *act* phase.

    The act phase sits after the observers of a round — so an actuator sees
    telemetry and health alerts that are fresh for that round — and before
    the after-round controls. Unlike a :class:`Control` (which injects
    scheduled events from outside the system) an actuator reacts to what the
    observers measured: it closes the observe → decide → act loop. The
    :class:`~repro.heal.engine.RemediationEngine` is the canonical one.

    An engine with no actuators skips the phase entirely, so the fault-free,
    unmanaged path stays bit-identical to the pre-act-phase engine.
    """

    def act(self, network: Network, round_index: int) -> None:
        """Called once per round, after every observer has run."""


class CallbackControl(Control):
    """Wraps a plain callable as a before-round control."""

    def __init__(self, callback: Callable[[Network, int], None]):
        self._callback = callback

    def before_round(self, network: Network, round_index: int) -> None:
        self._callback(network, round_index)


class ScheduledControl(Control):
    """Fires a callback exactly once, at the start of a given round.

    Used by the reconfiguration experiment (paper §4.iii): at round *t*, the
    assembly is rewritten and the runtime must re-converge.
    """

    def __init__(self, at_round: int, callback: Callable[[Network, int], None]):
        self.at_round = at_round
        self._callback = callback
        self.fired = False

    def before_round(self, network: Network, round_index: int) -> None:
        if not self.fired and round_index >= self.at_round:
            self.fired = True
            self._callback(network, round_index)
