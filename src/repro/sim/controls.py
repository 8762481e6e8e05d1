"""Round-boundary hooks: controls (mutate) and actuators (act).

These mirror PeerSim's ``Control`` components. A control runs before the
node steps of each round and may mutate the population or protocol state
(the program's one control is :class:`~repro.faults.schedule.Executor`);
the measuring side is the :class:`~repro.obs.instrument.Instrument` protocol.
"""

from __future__ import annotations

from repro.sim.network import Network

__all__ = ["Actuator", "Control"]


class Control:
    """Mutating round-boundary hook."""

    def before_round(self, network: Network, round_index: int) -> None:
        """Called before the node steps of ``round_index``."""


class Actuator:
    """Closed-loop hook run in the engine's *act* phase.

    The act phase sits after the observers of a round, so an actuator sees
    telemetry and health alerts that are fresh for that round. Unlike a
    :class:`Control` (which injects scheduled events from outside the
    system) an actuator reacts to what the observers measured: it closes the
    observe → decide → act loop. The
    :class:`~repro.heal.engine.RemediationEngine` is the canonical one.

    An engine with no actuators skips the phase entirely, so the fault-free,
    unmanaged path stays bit-identical to the pre-act-phase engine.
    """

    def act(self, network: Network, round_index: int) -> None:
        """Called once per round, after every observer has run."""
