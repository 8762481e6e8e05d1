"""The unified engine API: ``RunnerConfig`` → :func:`make_runner` → ``Runner``.

One way to build a run, whatever executes it —
:class:`~repro.sim.engine.Engine` (round-based reference),
:class:`~repro.scale.engine.ShardedEngine` (BSP scale tier), or the asyncio
UDP runtime of :mod:`repro.runtime.net`:

- :class:`RunnerConfig` — one frozen, validated configuration record. The
  lint rule ``API001`` (:mod:`repro.lint.api_surface`) pins it and the
  records it is built from, so new knobs land here.
- :func:`make_runner` — the one factory.
- :class:`Runner` — the structural protocol every engine satisfies:
  ``run_round`` / ``run`` / ``close`` plus the ``round`` counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Protocol, Tuple, runtime_checkable

from repro.errors import ConfigurationError
from repro.sim.config import GossipParams, TransportCosts

#: Engine kinds ``make_runner`` can build.
KINDS = ("round", "sharded", "net")


@runtime_checkable
class Runner(Protocol):
    """What every engine looks like from the outside.

    ``run_round`` executes one logical round and returns ``True`` when the
    engine wants to stop (an observer's verdict); ``run`` executes up to
    ``max_rounds`` and returns the count actually executed; ``close``
    releases any resources (process pools, sockets) and is idempotent.
    The ``round`` attribute counts completed rounds.
    """

    round: int

    def run_round(self) -> bool: ...  # noqa: E704 - protocol stub

    def run(self, max_rounds: int) -> int: ...  # noqa: E704 - protocol stub

    def close(self) -> None: ...  # noqa: E704 - protocol stub


@dataclass(frozen=True)
class RunnerConfig:
    """The consolidated engine configuration — frozen and validated.

    One record covers all three kinds; knobs irrelevant to a kind are
    simply unused (a ``net`` runner ignores ``n_shards``, a ``round``
    runner ignores ``port``) — except ``loss_rate``, which only the round
    engine models and the other kinds reject rather than silently ignore.
    """

    kind: str = "round"
    n_nodes: int = 64
    seed: int = 1
    #: Shape vocabulary shared with the perf/scale matrices (``ring``,
    #: ``grid``, ``clique``, ...); selects profiles and convergence test
    #: for the elementary stack the factory deploys.
    shape: str = "ring"
    #: Scale-tier workload label (the sharded engine's vocabulary).
    workload: str = "elementary"
    gossip: GossipParams = field(default_factory=GossipParams)
    costs: TransportCosts = field(default_factory=TransportCosts)
    loss_rate: float = 0.0
    max_rounds: int = 120
    # -- sharded knobs (historically ShardPlan + ScaleSpec) -------------------
    backend: str = "object"
    n_shards: int = 1
    mode: str = "inline"
    # -- net knobs (UDP runtime; see repro.runtime.net) -----------------------
    bind_host: str = "127.0.0.1"
    #: UDP port of this node; 0 binds an ephemeral port.
    port: int = 0
    #: This node's identity in the swarm (also its RNG-stream identity).
    node_index: int = 0
    #: ``host:port`` of the rendezvous (bootstrap) node, or ``""`` when
    #: this node *is* the rendezvous.
    rendezvous: str = ""
    #: Seconds between gossip rounds on the wall-clock ticker.
    round_interval: float = 0.2
    #: TTL for flooded ANNOUNCE frames and relay fanout per hop.
    ttl: int = 4
    fanout: int = 3

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"kind must be one of {KINDS}, got {self.kind!r}"
            )
        if self.n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1), got {self.loss_rate}"
            )
        if self.loss_rate > 0.0 and self.kind != "round":
            raise ConfigurationError(
                f"loss_rate is only modelled by kind='round', not {self.kind!r}"
            )
        if self.max_rounds < 0:
            raise ConfigurationError(
                f"max_rounds must be >= 0, got {self.max_rounds}"
            )
        if not 1 <= self.n_shards <= self.n_nodes:
            raise ConfigurationError(
                f"n_shards must be in [1, n_nodes], got {self.n_shards}"
            )
        if self.mode not in ("inline", "mp"):
            raise ConfigurationError(
                f"mode must be 'inline' or 'mp', got {self.mode!r}"
            )
        if self.backend not in ("object", "columnar"):
            raise ConfigurationError(
                f"backend must be 'object' or 'columnar', got {self.backend!r}"
            )
        if not 0 <= self.node_index < self.n_nodes:
            raise ConfigurationError(
                f"node_index must be in [0, n_nodes), got {self.node_index}"
            )
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(f"port must be a UDP port, got {self.port}")
        if self.round_interval <= 0.0:
            raise ConfigurationError(
                f"round_interval must be > 0, got {self.round_interval}"
            )
        if not 1 <= self.ttl <= 16:
            raise ConfigurationError(f"ttl must be in [1, 16], got {self.ttl}")
        if self.fanout < 1:
            raise ConfigurationError(f"fanout must be >= 1, got {self.fanout}")


#: The elementary two-layer stack the factory deploys (shared vocabulary
#: with the perf matrix: peer sampling feeding one Vicinity overlay).
PS_LAYER = "peer_sampling"
OVERLAY_LAYER = "overlay"


@dataclass
class ElementaryDeployment:
    """The substrate :func:`make_runner` builds for ``round``.

    Exposes the pieces callers historically built by hand (network,
    streams, transport) plus the rank bijection and the shape, so perf
    measurement and convergence checks keep working unchanged.
    """

    network: Any
    streams: Any
    transport: Any
    shape: Any
    rank_of: Dict[int, int]

    def overlay_adjacency(self) -> Dict[int, Dict[str, Any]]:
        """Rank-keyed overlay adjacency (the shape's convergence input)."""
        adjacency: Dict[int, Any] = {}
        for node in self.network.alive_nodes():
            rank = self.rank_of[node.node_id]
            adjacency[rank] = [
                self.rank_of[other]
                for other in node.protocol(OVERLAY_LAYER).neighbors()
                if other in self.rank_of
            ]
        return adjacency

    def converged(self) -> bool:
        return self.shape.converged(self.overlay_adjacency(), len(self.rank_of))


def build_elementary(
    config: RunnerConfig, transport: Optional[Any] = None
) -> ElementaryDeployment:
    """Deploy the elementary stack for ``config`` (digest-critical path).

    Construction order — node creation, per-node bootstrap draws, protocol
    attachment — is byte-for-byte the historical ``run_workload`` build,
    so a runner made here reproduces the pinned perf digests exactly.
    """
    from repro.gossip.peer_sampling import PeerSampling
    from repro.gossip.selection import Proximity
    from repro.gossip.vicinity import Vicinity
    from repro.shapes import make_shape
    from repro.sim.network import Network
    from repro.sim.rng import RandomStreams
    from repro.sim.transport import Transport

    shape = make_shape(config.shape)
    n_nodes = config.n_nodes
    params = config.gossip
    network = Network()
    streams = RandomStreams(config.seed)
    if transport is None:
        transport = Transport(config.costs)
    nodes = network.create_nodes(n_nodes)
    proximity = Proximity(shape.metric(n_nodes))
    view_size = shape.view_size(n_nodes, params.view_size)
    sized = GossipParams(
        view_size=view_size,
        gossip_size=min(params.gossip_size, view_size + 1),
        healer=params.healer,
        swapper=params.swapper,
        backend=params.backend,
    )
    rank_of: Dict[int, int] = {}
    for rank, node in enumerate(nodes):
        rank_of[node.node_id] = rank
        peer_sampling = PeerSampling(node.node_id, params, layer=PS_LAYER)
        peer_sampling.bootstrap(streams.stream("bootstrap", node.node_id), network)
        node.attach(PS_LAYER, peer_sampling)
        node.attach(
            OVERLAY_LAYER,
            Vicinity(
                node.node_id,
                profile=shape.coordinate(rank, n_nodes),
                proximity=proximity,
                params=sized,
                layer=OVERLAY_LAYER,
                random_layer=PS_LAYER,
                target_degree=max(1, shape.rank_degree(rank, n_nodes)),
            ),
        )
    return ElementaryDeployment(
        network=network,
        streams=streams,
        transport=transport,
        shape=shape,
        rank_of=rank_of,
    )


def make_runner(
    config: RunnerConfig,
    *,
    network: Optional[Any] = None,
    transport: Optional[Any] = None,
    streams: Optional[Any] = None,
    controls: Tuple = (),
    observers: Tuple = (),
    actuators: Tuple = (),
    obs: Optional[Any] = None,
) -> Runner:
    """The one constructor for every engine.

    - ``round`` — the cycle-driven reference engine. With an explicit
      ``network`` (a hand-built stack, e.g. the layered runtime's
      deployment) the remaining substrate kwargs are honoured; without
      one the factory deploys the elementary stack for ``config.shape``.
      The built runner exposes ``.deployment`` in the latter case. Pass a
      decorated ``transport`` to change what an exchange goes through —
      e.g. ``LoopbackTransport(Transport(config.costs))`` round-trips every
      exchange through the wire codec (the digest gate proves it lossless).
    - ``sharded`` — the BSP scale engine on ``config.workload``.
    - ``net`` — one UDP node of a swarm (see :mod:`repro.runtime.net`).
    """
    if config.kind == "round":
        from repro.sim.engine import Engine

        deployment = None
        if network is None:
            deployment = build_elementary(config, transport)
            network, streams = deployment.network, deployment.streams
            transport = deployment.transport
        runner = Engine(
            network,
            transport,
            streams,
            controls=controls,
            observers=observers,
            loss_rate=config.loss_rate,
            obs=obs,
            actuators=actuators,
        )
        runner.deployment = deployment
        return runner
    if config.kind == "sharded":
        from repro.scale.engine import ShardedEngine

        sharded = ShardedEngine(
            config.workload,
            config.shape,
            config.n_nodes,
            config.seed,
            backend=config.backend,
            n_shards=config.n_shards,
            mode=config.mode,
            costs=config.costs,
        )
        if obs is not None:
            sharded.obs = obs
        return sharded
    # config.kind == "net" — validated by RunnerConfig.
    from repro.runtime.net import NetRunner

    net_runner = NetRunner(config)
    if obs is not None:
        net_runner.obs = obs
    return net_runner
