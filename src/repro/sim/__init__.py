"""Round-based gossip network simulator (the PeerSim substrate equivalent).

The paper's evaluation runs in the PeerSim simulator's cycle-driven mode: in
each *round* (cycle) every live node executes one active step of each protocol
in its stack, in a random order, with synchronous message exchanges. This
package reimplements that execution model:

- :class:`~repro.sim.node.Node` — a simulated node carrying a named protocol
  stack and application attributes;
- :class:`~repro.sim.network.Network` — the node population, with churn
  support (joins, crashes, revivals);
- :class:`~repro.sim.transport.Transport` — synchronous message accounting;
  every gossip exchange reports its payload so byte-level bandwidth series
  (paper Fig. 4) can be extracted per protocol layer and per round;
- :class:`~repro.sim.engine.Engine` — the round scheduler, driving controls
  (a fault schedule's executor), node steps, and observers;
- :mod:`~repro.sim.rng` — deterministic named random streams derived from a
  single master seed, so every experiment is exactly reproducible;
- :mod:`~repro.sim.controls` — round-boundary hooks (failure injection is
  :mod:`repro.faults.schedule`).
"""

from repro.sim.config import GossipParams, TransportCosts
from repro.sim.engine import Engine, RoundContext
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.protocol import Protocol
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport

__all__ = [
    "Engine",
    "GossipParams",
    "Network",
    "Node",
    "Protocol",
    "RandomStreams",
    "RoundContext",
    "Transport",
    "TransportCosts",
]
