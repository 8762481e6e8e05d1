"""The unified engine API: ``RunnerConfig`` → :func:`make_runner` → ``Runner``.

One way to build a run, whatever executes it —
:class:`~repro.sim.engine.Engine` (round-based reference),
:class:`~repro.scale.engine.ShardedEngine` (BSP scale tier), or the asyncio
UDP runtime of :mod:`repro.runtime.net`:

- :class:`RunnerConfig` — one frozen, validated configuration record. A
  test (``tests/runtime/test_config.py``) pins its fields and those of the
  records it is built from, so new knobs land here.
- :func:`make_runner` — the one factory.
- :class:`Runner` — the structural protocol every engine satisfies:
  ``run_round`` / ``run`` / ``close`` plus the ``round`` counter. The
  in-process kinds also share a read side (``converged()``, ``digest()``,
  ``messages``, ``bytes``, ``mode_used``).
- :class:`ElementaryStack` — the one place that knows how the two-layer
  elementary stack is sized and attached, whatever executes it.
- :func:`run_until` — the one run-to-convergence loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Protocol, Tuple, runtime_checkable

from repro.errors import ConfigurationError
from repro.gossip.peer_sampling import PeerSampling
from repro.gossip.selection import Proximity
from repro.gossip.vicinity import Vicinity
from repro.perf.digest import overlay_digest
from repro.shapes import make_shape
from repro.sim.config import GossipParams, TransportCosts
from repro.sim.network import Network
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport

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
    # -- sharded knobs (see repro.scale.engine) --------------------------------
    #: Validated to ``"object"`` or ``"columnar"`` and read by nothing: the
    #: sharded engine runs ``PartialView`` either way. It stays only while
    #: the benchmark's ``scale_ring`` passes ``"columnar"``.
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


#: Layer labels of the elementary two-layer stack: global peer sampling
#: feeding one Vicinity overlay (the paper's Figure 1, bottom to core).
PS_LAYER = "peer_sampling"
OVERLAY_LAYER = "overlay"


class ElementaryStack:
    """How the elementary stack is put together — the one copy.

    Every way of running the stack takes these decisions from here: the
    round engine's :func:`build_elementary`, the UDP runtime's local node
    and remote facades, the monolithic baseline, and the sharded engine
    (which re-expresses the two protocols as BSP halves but shares the
    shape, the proximity, both parameter records and the target degrees).

    ``shape`` is a registry name or a :class:`~repro.shapes.base.Shape`;
    ``params`` sizes peer sampling as given and the overlay by the shape.
    """

    def __init__(self, shape: Any, n_nodes: int, params: Optional[GossipParams] = None):
        self.shape = make_shape(shape) if isinstance(shape, str) else shape
        self.n_nodes = n_nodes
        self.params = params or GossipParams()
        self.sized = self.params.resized(
            self.shape.view_size(n_nodes, self.params.view_size)
        )
        self.proximity = Proximity(self.shape.metric(n_nodes))

    def profile(self, rank: int) -> Any:
        return self.shape.coordinate(rank, self.n_nodes)

    def target_degree(self, rank: int) -> int:
        return max(1, self.shape.rank_degree(rank, self.n_nodes))

    def attach(self, node: Any, rank: int, random_feed: bool = True) -> PeerSampling:
        """Attach both layers to ``node`` as shape rank ``rank``.

        Returns the peer-sampling instance so the caller can bootstrap it
        (or not: a remote facade keeps its empty view). ``random_feed=False``
        cuts the overlay off from peer sampling — ablation A2.
        """
        peer_sampling = PeerSampling(node.node_id, self.params, layer=PS_LAYER)
        node.attach(PS_LAYER, peer_sampling)
        node.attach(
            OVERLAY_LAYER,
            Vicinity(
                node.node_id,
                profile=self.profile(rank),
                proximity=self.proximity,
                params=self.sized,
                layer=OVERLAY_LAYER,
                random_layer=PS_LAYER if random_feed else None,
                target_degree=self.target_degree(rank),
            ),
        )
        return peer_sampling


@dataclass
class ElementaryDeployment:
    """The substrate :func:`make_runner` builds for ``round``.

    Exposes the pieces a caller would otherwise build by hand (network,
    streams, transport) plus the rank bijection and the shape, and answers
    the two questions asked of a finished run: did the shape converge, and
    what is the overlay's digest.
    """

    network: Any
    streams: Any
    transport: Any
    shape: Any
    rank_of: Dict[int, int]

    def converged(self) -> bool:
        """Whether the live nodes' overlay neighbours realize the shape."""
        rank_of = self.rank_of
        adjacency = {
            rank_of[node.node_id]: [
                rank_of[other]
                for other in node.protocol(OVERLAY_LAYER).neighbors()
                if other in rank_of
            ]
            for node in self.network.alive_nodes()
        }
        return self.shape.converged(adjacency, len(rank_of))

    def digest(self) -> str:
        return overlay_digest(self.network, (PS_LAYER, OVERLAY_LAYER))


def build_elementary(
    config: RunnerConfig,
    transport: Optional[Any] = None,
    shape: Optional[Any] = None,
    random_feed: bool = True,
) -> ElementaryDeployment:
    """Deploy the elementary stack for ``config`` (digest-critical path).

    Node creation order and the per-node ``bootstrap`` stream draws are what
    the pinned ``tests/scale/elementary_cells.json`` digests depend on. ``shape`` overrides
    ``config.shape`` with a parameterized :class:`~repro.shapes.base.Shape`
    instance; ``random_feed`` is forwarded to :meth:`ElementaryStack.attach`.
    """
    stack = ElementaryStack(
        config.shape if shape is None else shape, config.n_nodes, config.gossip
    )
    network = Network()
    streams = RandomStreams(config.seed)
    rank_of: Dict[int, int] = {}
    for rank, node in enumerate(network.create_nodes(config.n_nodes)):
        rank_of[node.node_id] = rank
        stack.attach(node, rank, random_feed).bootstrap(
            streams.stream("bootstrap", node.node_id), network.rendezvous
        )
    return ElementaryDeployment(
        network=network,
        streams=streams,
        transport=Transport(config.costs) if transport is None else transport,
        shape=stack.shape,
        rank_of=rank_of,
    )


def run_until(
    runner: Runner, converged: Callable[[], bool], max_rounds: int
) -> Optional[int]:
    """Step ``runner`` until ``converged()`` holds — the one convergence loop.

    Returns the 1-based round at which the predicate first held, or
    ``None`` when ``max_rounds`` ran out. The predicate is checked after
    every round, so every execution of a deterministic cell stops at the
    same round and fingerprints the same final state.
    """
    for round_index in range(max_rounds):
        runner.run_round()
        if converged():
            return round_index + 1
    return None


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

        sharded = ShardedEngine(config)
        if obs is not None:
            sharded.obs = obs
        return sharded
    # config.kind == "net" — validated by RunnerConfig.
    from repro.runtime.net import NetRunner

    net_runner = NetRunner(config)
    if obs is not None:
        net_runner.obs = obs
    return net_runner
