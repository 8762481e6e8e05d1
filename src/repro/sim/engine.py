"""The round (cycle) scheduler.

Reproduces PeerSim's cycle-driven execution model used by the paper's
evaluation: each round, every live node executes one active step of each
protocol in its stack, in a freshly shuffled node order; controls (a fault
schedule's :class:`~repro.faults.schedule.Executor`) run before the node
steps; observers measure after each round and may stop the run early (e.g.
once every layer has converged).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, List, Optional

from repro.errors import SimulationError
from repro.sim.network import Network
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instrument import Instrument
    from repro.sim.controls import Actuator, Control
    from repro.sim.node import Node


@dataclass
class RoundContext:
    """Everything a protocol step may touch, bundled for one (node, round).

    Protocols draw randomness through :meth:`rng`, which returns the stream
    named ``(layer, node_id)`` — deterministic per node and layer.

    A gossip layer learns about other nodes only through :attr:`peers`
    (``is_alive``, ``runs``, ``profile``, ``advert``); of :attr:`network`
    it reads the ``rendezvous`` alone (lint rule ``PEER001``).
    """

    node: "Node"
    network: Network
    transport: Transport
    streams: RandomStreams
    round: int
    layer: str = ""
    #: Telemetry sink (see :mod:`repro.obs`); ``None`` means disabled, and
    #: protocol hot paths guard every call with ``if ctx.obs is not None``
    #: so uninstrumented runs do zero observability work.
    obs: Optional["Instrument"] = None
    #: What this node knows of its peers. Defaults to :attr:`network`,
    #: which answers from the true state (the live runner's
    #: ``NetDirectory`` answers from its membership table).
    peers: Any = None

    def __post_init__(self) -> None:
        if self.peers is None:
            self.peers = self.network

    def rng(self):
        """The random stream for the current (layer, node) pair."""
        return self.streams.stream(self.layer, self.node.node_id)


class Engine:
    """Drives a simulation round by round.

    Parameters
    ----------
    network, transport, streams:
        The simulation substrate; the engine takes no ownership and several
        engines may share a network sequentially (used by reconfiguration
        experiments).
    controls:
        Round-boundary hooks run *before* the node steps of each round
        (a fault schedule's executor).
    observers:
        Measurement hooks run *after* the node steps of each round. An
        observer's :meth:`~repro.obs.instrument.Instrument.observe` may return
        ``True`` to request an early stop (e.g. "all layers converged").
    actuators:
        Closed-loop hooks (:class:`~repro.sim.controls.Actuator`) run in the
        *act* phase — after every observer of a round — so they decide on
        telemetry that is fresh for the round. The remediation engine of
        :mod:`repro.heal` attaches here; an engine with no actuators skips
        the phase entirely.
    obs:
        Optional :class:`~repro.obs.instrument.Instrument` telemetry sink,
        handed to every :class:`RoundContext` and timed around each round.
        ``None`` (default) keeps the engine on the uninstrumented path:
        one ``is None`` check per guarded call site, zero allocations.
    """

    #: Set by :func:`repro.runtime.api.make_runner` when the factory
    #: deployed the elementary stack; ``None`` when the caller supplied its
    #: own network.
    deployment = None

    def __init__(
        self,
        network: Network,
        transport: Optional[Transport] = None,
        streams: Optional[RandomStreams] = None,
        controls: Iterable["Control"] = (),
        observers: Iterable["Instrument"] = (),
        obs: Optional["Instrument"] = None,
        actuators: Iterable["Actuator"] = (),
    ):
        self.network = network
        self.transport = transport or Transport()
        self.streams = streams or RandomStreams(0)
        self.controls: List["Control"] = list(controls)
        self.observers: List["Instrument"] = list(observers)
        self.actuators: List["Actuator"] = list(actuators)
        self.obs = obs
        self.round = 0

    def add_control(self, control: "Control") -> None:
        self.controls.append(control)

    def add_observer(self, observer: "Instrument") -> None:
        self.observers.append(observer)

    def add_actuator(self, actuator: "Actuator") -> None:
        self.actuators.append(actuator)

    # -- the read side shared with ShardedEngine --------------------------------
    # What a finished run is asked, under the sharded engine's spelling, so
    # a cell runner or conformance suite never branches on the runner kind.
    # converged()/digest() speak for the elementary stack make_runner deploys.

    #: The round engine always steps in this process.
    mode_used = "inline"

    @property
    def messages(self) -> int:
        return self.transport.total_messages()

    @property
    def bytes(self) -> int:
        return self.transport.total_bytes()

    def converged(self) -> bool:
        return self.deployment.converged()

    def digest(self) -> str:
        return self.deployment.digest()

    def close(self) -> None:
        """Release resources (none for the in-memory engine)."""

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ------------------------------------------------------------

    def run_round(self) -> bool:
        """Execute one round; return ``True`` if an observer requested a stop."""
        obs = self.obs
        if obs is not None:
            obs.span_begin("round")
        self.transport.begin_round(self.round)
        for control in self.controls:
            control.before_round(self.network, self.round)

        if obs is not None:
            obs.span_begin("steps")
        # Per-layer span profiling (`repro report --profile`): resolved once
        # per round so the common non-profiling path pays one getattr here,
        # never per (node, layer) step.
        profile = obs is not None and getattr(obs, "profile_layers", False)
        order = list(self.network.alive_ids())
        self.streams.stream("engine", "order").shuffle(order)
        for node_id in order:
            if not self.network.has_node(node_id):
                continue  # removed by a control or by cascading churn
            node = self.network.node(node_id)
            if not node.alive:
                continue  # killed earlier in this same round
            ctx = RoundContext(
                node=node,
                network=self.network,
                transport=self.transport,
                streams=self.streams,
                round=self.round,
                obs=obs,
            )
            if profile:
                for layer, protocol in node.stack():
                    ctx.layer = layer
                    span = "layer:" + layer
                    obs.span_begin(span)
                    protocol.step(ctx)
                    obs.span_end(span)
            else:
                for layer, protocol in node.stack():
                    ctx.layer = layer
                    protocol.step(ctx)
        if obs is not None:
            obs.span_end("steps")
            obs.span_begin("observe")

        stop = False
        for observer in self.observers:
            if observer.observe(self.network, self.round):
                stop = True
        if obs is not None:
            obs.span_end("observe")
        # Act phase: closed-loop actuators run on this round's fresh
        # observations, in a span of its own under ``round`` (a sibling of
        # ``observe``). It is only opened when actuators exist, so
        # unmanaged runs record identical telemetry to the pre-act-phase
        # engine.
        if self.actuators:
            if obs is not None:
                obs.span_begin("act")
            for actuator in self.actuators:
                actuator.act(self.network, self.round)
            if obs is not None:
                obs.span_end("act")
        if obs is not None:
            obs.span_end("round")
        self.round += 1
        return stop

    def run(self, max_rounds: int) -> int:
        """Run up to ``max_rounds`` rounds; return the number executed.

        Stops early when an observer asks to.
        """
        if max_rounds < 0:
            raise SimulationError(f"max_rounds must be >= 0, got {max_rounds}")
        executed = 0
        for _ in range(max_rounds):
            stop = self.run_round()
            executed += 1
            if stop:
                break
        return executed
