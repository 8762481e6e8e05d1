"""The barrier-synchronous (BSP) sharded engine: the stack's own layers, sharded.

The serial :class:`~repro.sim.engine.Engine` runs exchanges *synchronously*
inside a round: the partner replies from whatever state it has at that
instant, so the outcome depends on the interleaving of every exchange and
no shard partition of it can be digest-identical to the serial run.

This engine runs the very same :class:`~repro.gossip.peer_sampling.PeerSampling`
and :class:`~repro.gossip.vicinity.Vicinity` objects under a round model
whose overlay is a pure function of ``(workload, seed)`` — independent of
shard count, boundaries and process placement. Each round runs the two
layers in a fixed order (peer sampling, then the shape overlay); each
layer's exchange is cut at the seams of
:class:`~repro.sim.protocol.GossipProtocol` into three barriered phases:

- **request** — every node runs the opening half (``open_exchange``) with
  its *own* RNG stream, offering a buffer built from pre-round state;
- **respond** — every node answers its requests through its own
  ``on_request`` under its own context, in ascending requester id;
- **absorb** — every requester runs the closing half (``close_exchange``)
  on the reply it got.

Within a phase a node touches only its own state, the static adverts of the
other ranks' facades, and the messages addressed to it, so shards run
phases concurrently and exchange messages only at the barriers.
Determinism rests on two invariants, both pinned by tests/scale/: every RNG
draw comes from a per-node stream seeded by the
:func:`~repro.sim.rng.spawn_seeds` SHA-256 splitter (the rank is the only
key), and all order-sensitive processing runs in ascending node id.

Two execution backends share the same :class:`ShardState` logic:
``mode="inline"`` steps every shard in-process (the reference), and
``mode="mp"`` forks one long-lived :func:`_shard_worker` process per shard,
driven over a pipe. On the pipe a descriptor buffer travels as plain tuple
rows, which pickle writes in C (a ``Descriptor`` would go through its
Python-level ``__reduce__``); the worker rebuilds each with one
``tuple.__new__``, and the parent routes rows without building any. The
worker keeps all mutable state on its stack — never in module globals
(SHD001). The parent degrades to inline execution if the workers cannot
start (platforms without fork); a worker that dies, raises or falls silent
fails the run with a :class:`~repro.errors.SimulationError`.

Simulation-side module: no wall-clock reads (DET003).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, List, NoReturn, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.gossip.descriptors import Descriptor
from repro.perf.digest import adjacency_digest
from repro.runtime.api import (
    OVERLAY_LAYER,
    PS_LAYER,
    ElementaryStack,
    RunnerConfig,
    run_until,
)
from repro.sim.engine import RoundContext
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.protocol import Opened
from repro.sim.rng import RandomStreams, spawn_seeds
from repro.sim.transport import ExchangeRequest, Transport

LAYERS = (PS_LAYER, OVERLAY_LAYER)

#: Seconds the parent waits for one shard worker's answer, at start-up and
#: at every barrier, before it gives the run up as hung.
BARRIER_TIMEOUT_S = 60.0

#: A routed message: (source node id, destination node id, descriptor
#: buffer, the request's wire profile — ``None`` on a reply). Between a
#: worker and the parent the buffer holds each descriptor as a plain tuple.
Message = Tuple[int, int, List[Descriptor], Any]

_new = tuple.__new__


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic contiguous partition of node ranks into shards.

    Ranks ``0 .. n_nodes-1`` split into ``n_shards`` contiguous blocks; the
    first ``n_nodes % n_shards`` blocks get the extra node. The plan is a
    pure function of its two integers, so every process — parent and
    workers alike — reconstructs the identical partition from the spec.
    """

    n_nodes: int
    n_shards: int

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if not 1 <= self.n_shards <= self.n_nodes:
            raise ConfigurationError(
                f"n_shards must be in [1, n_nodes], got {self.n_shards}"
            )

    def members(self, shard: int) -> range:
        """The ranks owned by ``shard``, as a contiguous range."""
        if not 0 <= shard < self.n_shards:
            raise ConfigurationError(
                f"shard must be in [0, {self.n_shards}), got {shard}"
            )
        quotient, remainder = divmod(self.n_nodes, self.n_shards)
        start = shard * quotient + min(shard, remainder)
        return range(start, start + quotient + (1 if shard < remainder else 0))

    def shard_of(self, rank: int) -> int:
        """The shard owning ``rank``."""
        if not 0 <= rank < self.n_nodes:
            raise ConfigurationError(
                f"rank must be in [0, {self.n_nodes}), got {rank}"
            )
        quotient, remainder = divmod(self.n_nodes, self.n_shards)
        pivot = remainder * (quotient + 1)
        if rank < pivot:
            return rank // (quotient + 1)
        return remainder + (rank - pivot) // quotient


@dataclass
class _ShardContext(RoundContext):
    """One owned node's context for one layer, built once per run.

    ``streams`` is ``RandomStreams(node_seed)`` for the context's node, so
    :meth:`rng` is the stream keyed by the layer name alone — the rank
    enters through the node seed, never through the stream key.
    """

    def __post_init__(self) -> None:
        self._rng = self.streams.stream(self.layer)

    def rng(self):
        return self._rng


class ShardState:
    """One shard of the population, as a plain :class:`~repro.sim.network.Network`.

    Every rank is a node carrying the stack's own layers, attached by
    :meth:`~repro.runtime.api.ElementaryStack.attach`. The ranks this shard
    owns are bootstrapped and stepped; every other rank is a facade with
    empty views, read for its ``self_descriptor()`` and ``profile`` only.
    The inline engine holds one of these per shard; a worker process
    builds its one from the forked :class:`~repro.runtime.api.RunnerConfig`.
    """

    def __init__(self, config: RunnerConfig, shard_index: int):
        n = config.n_nodes
        stack = ElementaryStack(config.shape, n, config.gossip)
        owned = ShardPlan(n, config.n_shards).members(shard_index)
        network = Network()
        transport = Transport(config.costs)
        node_seeds = spawn_seeds(config.seed, n, "scale", config.workload)
        self.nodes: Dict[int, Node] = {}
        self._targets = {rank: stack.shape.target_neighbors(rank, n) for rank in owned}
        #: layer -> {rank: (protocol, context)} of the owned ranks, ascending.
        self._layers: Dict[str, Dict[int, Tuple]] = {layer: {} for layer in LAYERS}
        #: requester rank -> what its opening half returned, this layer.
        self._pending: Dict[int, Opened] = {}
        for rank, node in enumerate(network.create_nodes(n)):
            peer_sampling = stack.attach(node, rank)
            if rank not in owned:
                continue
            streams = RandomStreams(node_seeds[rank])
            # WireKOut without materializing the population: sampling
            # range(n - 1) and shifting past our own rank draws what an
            # explicit candidate list would, at O(view_size) per node.
            boot = streams.stream("bootstrap")
            for pick in boot.sample(range(n - 1), min(stack.params.view_size, n - 1)):
                peer_sampling.view.insert(Descriptor(pick if pick < rank else pick + 1, age=0))
            self.nodes[rank] = node
            for layer in LAYERS:
                ctx = _ShardContext(node, network, transport, streams, 0, layer)
                self._layers[layer][rank] = (node.protocol(layer), ctx)

    # -- the three phases ------------------------------------------------------

    def request(self, layer: str, round_index: int) -> List[Message]:
        """Phase A: every owned node opens its exchange (ascending rank)."""
        out: List[Message] = []
        pending = self._pending
        for rank, (protocol, ctx) in self._layers[layer].items():
            ctx.round = round_index
            opened = protocol.open_exchange(ctx)
            if opened is None:
                continue
            pending[rank] = opened
            partner_id, buffer, _, profile = opened
            if buffer is not None:
                out.append((rank, partner_id, buffer, profile))
        return out

    def respond(self, layer: str, incoming: List[Message]) -> List[Message]:
        """Phase B: owned nodes answer, ascending node then requester id.

        Each answer is the responder's ``on_request`` under its own context.
        """
        owned = self._layers[layer]
        replies: List[Message] = []
        for src, dst, buffer, profile in sorted(incoming, key=itemgetter(1, 0)):
            protocol, ctx = owned[dst]
            request = ExchangeRequest(layer, src, buffer, profile)
            replies.append((dst, src, protocol.on_request(ctx, request), None))
        return replies

    def absorb(self, layer: str, replies: List[Message]) -> None:
        """Phase C: every owned requester closes its exchange, ascending id.

        A requester whose request found no reply closes on ``None``: the
        exchange's own refusal rule decides what that costs.
        """
        got = {requester: reply for _, requester, reply, _ in replies}
        pending = self._pending
        for rank, (protocol, ctx) in self._layers[layer].items():
            opened = pending.pop(rank, None)
            if opened is not None:
                protocol.close_exchange(ctx, opened, got.get(rank))

    def converged(self) -> bool:
        """Whether every owned node covers its target neighbourhood.

        The shard-local half of ``Shape.converged``: the global check is
        exactly the conjunction over shards, and keeping it shard-side
        avoids shipping the full adjacency across the pipes every round.
        """
        for rank, node in self.nodes.items():
            wanted = self._targets[rank]
            if wanted and not wanted <= set(node.protocol(OVERLAY_LAYER).neighbors()):
                return False
        return True

    def adjacency(self) -> Dict[int, Dict[str, List[int]]]:
        """The (node -> layer -> neighbour ids) record of this shard."""
        return {
            rank: {layer: node.protocol(layer).neighbors() for layer in LAYERS}
            for rank, node in self.nodes.items()
        }


def _rows(batch: List[Message]) -> List[Message]:
    """``batch`` with every buffer as plain tuples, for the pipe."""
    return [(src, dst, list(map(tuple, buffer)), profile) for src, dst, buffer, profile in batch]


def _descriptors(batch: List[Message]) -> List[Message]:
    """``batch`` off the pipe, every row a ``Descriptor`` again."""
    return [
        (src, dst, [_new(Descriptor, row) for row in rows], profile)
        for src, dst, rows, profile in batch
    ]


def _shard_worker(conn, config: RunnerConfig, shard_index: int) -> None:
    """The long-lived worker process hosting one shard.

    All mutable state — the shard, its views, its RNG streams — lives in
    this frame; the function never writes a module global (SHD001), so a
    worker hosts its shard without bleed from whatever it was forked from.
    """
    try:
        shard = ShardState(config, shard_index)
        conn.send(("ok", None))
        while True:
            command, payload = conn.recv()
            if command == "request":
                layer, round_index = payload
                conn.send(("ok", _rows(shard.request(layer, round_index))))
            elif command == "respond":
                layer, routed = payload
                conn.send(("ok", _rows(shard.respond(layer, _descriptors(routed)))))
            elif command == "absorb":
                layer, routed = payload
                shard.absorb(layer, _descriptors(routed))
                conn.send(("ok", None))
            elif command == "adjacency":
                conn.send(("ok", shard.adjacency()))
            elif command == "converged":
                conn.send(("ok", shard.converged()))
            else:  # "stop" (or anything unknown)
                return
    except EOFError:  # parent went away: nothing to report to
        return
    except BaseException as error:  # surface the failure at the barrier
        try:
            conn.send(("error", repr(error)))
        except OSError:
            pass
        raise
    finally:
        conn.close()


class _InlineShards:
    """Reference execution backend: every shard stepped in this process."""

    def __init__(self, config: RunnerConfig):
        self._shards = [
            ShardState(config, index) for index in range(config.n_shards)
        ]

    def request(self, layer: str, round_index: int) -> List[List[Message]]:
        return [shard.request(layer, round_index) for shard in self._shards]

    def respond(self, layer: str, routed: List[List[Message]]) -> List[List[Message]]:
        return [
            shard.respond(layer, batch)
            for shard, batch in zip(self._shards, routed)
        ]

    def absorb(self, layer: str, routed: List[List[Message]]) -> None:
        for shard, batch in zip(self._shards, routed):
            shard.absorb(layer, batch)

    def adjacency(self) -> Dict[int, Dict[str, List[int]]]:
        record: Dict[int, Dict[str, List[int]]] = {}
        for shard in self._shards:
            record.update(shard.adjacency())
        return record

    def converged(self) -> bool:
        return all(shard.converged() for shard in self._shards)

    def close(self) -> None:
        pass


class _ProcessShards:
    """Process-backed execution: one forked, pipe-driven worker per shard.

    The parent's side of the phase protocol. Every phase is one
    send/receive per shard — requests fan out before any reply is awaited,
    so shards genuinely overlap between barriers.
    """

    def __init__(self, config: RunnerConfig):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self._conns: List[Any] = []
        self._processes: List[Any] = []
        try:
            for index in range(config.n_shards):
                parent_end, child_end = context.Pipe()
                self._conns.append(parent_end)
                process = context.Process(
                    target=_shard_worker, args=(child_end, config, index), daemon=True
                )
                try:
                    process.start()
                finally:
                    # Once forked, the worker holds the only other copy, so
                    # its death reads as end-of-file (or a broken pipe) here.
                    child_end.close()
                self._processes.append(process)
            self._gather("start")
        except BaseException:
            self.close()
            raise

    def _broadcast(self, command: str, payloads) -> List:
        """Send each worker its payload, then gather every answer."""
        for index, (conn, payload) in enumerate(zip(self._conns, payloads)):
            try:
                conn.send((command, payload))
            except OSError:
                self._fail(index, f"died before {command!r}")
        return self._gather(command)

    def _gather(self, command: str) -> List:
        """Every worker's answer to ``command``, in shard order."""
        results = []
        for index, conn in enumerate(self._conns):
            try:
                if not conn.poll(BARRIER_TIMEOUT_S):
                    self._fail(
                        index,
                        f"did not answer {command!r} within {BARRIER_TIMEOUT_S:g} s",
                    )
                status, value = conn.recv()
            except (OSError, EOFError):
                self._fail(index, f"died during {command!r}")
            if status != "ok":
                self._fail(index, f"failed on {command!r}: {value}")
            results.append(value)
        return results

    def _fail(self, index: int, why: str) -> NoReturn:
        """Stop every worker and fail the run, naming shard ``index``."""
        self._processes[index].join(1)  # a dead worker's exit code, once reaped
        code = self._processes[index].exitcode
        for process in self._processes:
            process.terminate()  # a silent worker never reads "stop"
        self.close()
        exit_code = "" if code is None else f" (exit code {code})"
        raise SimulationError(f"shard worker {index} {why}{exit_code}")

    def request(self, layer: str, round_index: int) -> List[List[Message]]:
        return self._broadcast("request", [(layer, round_index)] * len(self._conns))

    def respond(self, layer: str, routed: List[List[Message]]) -> List[List[Message]]:
        return self._broadcast("respond", [(layer, batch) for batch in routed])

    def absorb(self, layer: str, routed: List[List[Message]]) -> None:
        self._broadcast("absorb", [(layer, batch) for batch in routed])

    def adjacency(self) -> Dict[int, Dict[str, List[int]]]:
        record: Dict[int, Dict[str, List[int]]] = {}
        for partial in self._broadcast("adjacency", [None] * len(self._conns)):
            record.update(partial)
        return record

    def converged(self) -> bool:
        return all(self._broadcast("converged", [None] * len(self._conns)))

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop", None))
            except OSError:
                pass
        for process in self._processes:
            process.join(5)
            if process.exitcode is None:
                process.terminate()
                process.join()
        for conn in self._conns:
            conn.close()
        self._conns, self._processes = [], []


class ShardedEngine:
    """The scale tier's engine: BSP rounds of the elementary stack's own layers.

    Built from a :class:`~repro.runtime.api.RunnerConfig` like every other
    runner; the fields it reads:

    ``workload``, ``shape``, ``n_nodes``, ``gossip``
        The deployed cell — same vocabulary as the perf workload matrix.
    ``seed``
        Master seed; per-node streams derive from it via ``spawn_seeds``.
    ``n_shards``
        How many contiguous rank blocks the population splits into.
    ``mode``
        ``"inline"`` steps shards sequentially in-process (the reference);
        ``"mp"`` forks one worker process per shard, degrading to inline if
        the workers cannot start. ``mode_used`` records the outcome.

    Every shard node is the round engine's own ``PeerSampling`` +
    ``Vicinity`` pair, built by :meth:`~repro.runtime.api.ElementaryStack.attach`;
    a change to either layer moves this engine's digests with the round
    engine's. ``backend`` is validated and read by nothing here.

    Digest invariant (pinned by tests/scale/test_digests.py): for a fixed
    ``(workload, seed)``, :meth:`digest` is byte-identical across every
    combination of ``n_shards`` and ``mode``.
    """

    def __init__(self, config: RunnerConfig):
        self.config = config
        self.plan = ShardPlan(config.n_nodes, config.n_shards)
        self.costs = config.costs
        self.round = 0
        self.messages = 0
        self.bytes = 0
        self.mode_used = config.mode
        #: Optional observability sink (:class:`~repro.obs.instrument.Instrument`).
        #: When set, :meth:`run_round` times each BSP phase as ``shard:*``
        #: spans. Pure observation: the digest invariant holds with or
        #: without a sink attached (pinned by tests/scale/test_spans.py).
        self.obs: Optional[Any] = None
        if config.mode == "mp":
            try:
                self._shards = _ProcessShards(config)
            except Exception:
                # No usable workers (no fork on this platform): the
                # inline backend computes the identical rounds.
                self.mode_used = "inline"
                self._shards = _InlineShards(config)
        else:
            self._shards = _InlineShards(config)

    # -- rounds ------------------------------------------------------------------

    def run_round(self) -> bool:
        """One BSP round: both layers, three barriered phases each.

        Returns ``False`` (the :class:`~repro.runtime.api.Runner` stop
        verdict: a BSP round never asks to stop; :meth:`run` checks
        convergence instead).

        With an ``obs`` sink attached, every phase is timed as a span:
        ``shard:request`` / ``shard:respond`` / ``shard:absorb`` cover the
        shard-side compute (including, in ``mp`` mode, the pipe round
        trips), and ``shard:barrier`` covers the supervisor-side gather and
        routing between phases — the time every shard's output must be in
        hand before the next phase can start.
        """
        obs = self.obs
        if obs is not None:
            obs.span_begin("round")
        shards, phase = self._shards, self._phase
        for layer in LAYERS:
            requests = phase("shard:request", shards.request, layer, self.round)
            routed = phase("shard:barrier", self._route, requests)
            replies = phase("shard:respond", shards.respond, layer, routed)
            returned = phase("shard:barrier", self._route, replies)
            phase("shard:absorb", shards.absorb, layer, returned)
        if obs is not None:
            obs.span_end("round")
            obs.gauge("shard_messages", self.messages)
            obs.gauge("shard_bytes", self.bytes)
        self.round += 1
        return False

    def _phase(self, span: str, call: Callable, *args: Any) -> Any:
        """``call(*args)``, timed as ``span`` when an ``obs`` sink is attached."""
        obs = self.obs
        if obs is None:
            return call(*args)
        obs.span_begin(span)
        result = call(*args)
        obs.span_end(span)
        return result

    def _route(self, batches: List[List[Message]]) -> List[List[Message]]:
        """Account every message and bucket it by its destination's shard."""
        shard_of, message_bytes = self.plan.shard_of, self.costs.message_bytes
        routed: List[List[Message]] = [[] for _ in range(self.config.n_shards)]
        for batch in batches:
            for message in batch:
                self.messages += 1
                self.bytes += message_bytes(len(message[2]))
                routed[shard_of(message[1])].append(message)
        return routed

    def run(self, max_rounds: int) -> int:
        """Run up to ``max_rounds`` BSP rounds; stop early on convergence."""
        if max_rounds < 0:
            raise SimulationError(f"max_rounds must be >= 0, got {max_rounds}")
        start = self.round
        run_until(self, self.converged, max_rounds)
        return self.round - start

    # -- observation -------------------------------------------------------------

    def adjacency(self) -> Dict[int, Dict[str, List[int]]]:
        """The merged (node -> layer -> neighbours) record, all shards."""
        return self._shards.adjacency()

    def converged(self) -> bool:
        """Whether the shape's every target edge is realized (all shards)."""
        return self._shards.converged()

    def digest(self) -> str:
        """Canonical SHA-256 of the full adjacency (the determinism gate)."""
        return adjacency_digest(self.adjacency())

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self._shards.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
