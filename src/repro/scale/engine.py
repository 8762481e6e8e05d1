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
phases concurrently. A shard keeps what it addresses to its own ranks; only
one outbox per other shard crosses a barrier. A round is five steps:
request, respond, absorb + the overlay's request, respond, absorb + the
shard's convergence verdict and ledger.
Determinism rests on two invariants, both pinned by tests/scale/: every RNG
draw comes from a per-node stream seeded by the
:func:`~repro.sim.rng.spawn_seeds` SHA-256 splitter (the rank is the only
key), and all order-sensitive processing runs in ascending node id.

``mode="inline"`` steps every shard in-process on message lists (the
reference); ``mode="mp"`` forks one long-lived :func:`_shard_worker`
process per shard, driven over a pipe on the same schedule. A worker seals
each outbox into one ``bytes`` value of plain tuple rows (pickled in C, not
through ``Descriptor.__reduce__``); the parent forwards it unopened and the
receiver rebuilds each row with one ``tuple.__new__``. The worker keeps all
mutable state on its stack (SHD001). Only a platform without fork degrades
to inline; a worker that dies, raises or falls silent, at start-up or
later, fails the run with a :class:`~repro.errors.SimulationError`.

Simulation-side module: no wall-clock reads (DET003).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from itertools import chain
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
#: buffer, the request's wire profile — ``None`` on a reply).
Message = Tuple[int, int, List[Descriptor], Any]
#: A shard's phase output: destination shard -> outbox, one per other
#: shard. Inline an outbox is a message list; a worker seals it to bytes.
Outboxes = Dict[int, Any]

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
    A phase keeps its messages to owned ranks and returns the rest as
    :data:`Outboxes`; ``transport`` is the shard's ledger.
    """

    def __init__(self, config: RunnerConfig, shard_index: int):
        n = config.n_nodes
        stack = ElementaryStack(config.shape, n, config.gossip)
        plan = ShardPlan(n, config.n_shards)
        owned = plan.members(shard_index)
        network = Network()
        self.transport = transport = Transport(config.costs)
        self.index = shard_index
        #: rank -> owning shard, so posting a message is one list read.
        self._shard_of = [s for s in range(plan.n_shards) for _ in plan.members(s)]
        #: The last phase's messages to owned ranks, for the next phase.
        self._kept: List[Message] = []
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

    def _post(self, messages: List[Message]) -> Outboxes:
        """Keep ``messages`` to owned ranks; bucket the rest by shard."""
        shard_of = self._shard_of
        boxes: List[List[Message]] = [[] for _ in range(shard_of[-1] + 1)]
        for message in messages:
            boxes[shard_of[message[1]]].append(message)
        self._kept = boxes[self.index]
        return {shard: box for shard, box in enumerate(boxes) if shard != self.index}

    def request(self, layer: str, round_index: int) -> Outboxes:
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
        return self._post(out)

    def respond(self, layer: str, inbound: List[List[Message]]) -> Outboxes:
        """Phase B: owned nodes answer, ascending node then requester id.

        ``inbound`` holds the other shards' outboxes to this one; the kept
        requests join them. Each answer is the responder's ``on_request``
        under its own context.
        """
        owned = self._layers[layer]
        replies: List[Message] = []
        incoming = sorted(chain(self._kept, *inbound), key=itemgetter(1, 0))
        for src, dst, buffer, profile in incoming:
            protocol, ctx = owned[dst]
            request = ExchangeRequest(layer, src, buffer, profile)
            replies.append((dst, src, protocol.on_request(ctx, request), None))
        return self._post(replies)

    def absorb(self, layer: str, inbound: List[List[Message]]) -> None:
        """Phase C: every owned requester closes its exchange, ascending id.

        Replies are keyed by requester, so kept and received ones merge
        without an order. A requester whose request found no reply closes
        on ``None``: the exchange's own refusal rule decides what that costs.
        """
        got = {requester: reply for _, requester, reply, _ in chain(self._kept, *inbound)}
        self._kept = []
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

    def verdict(self) -> Tuple[bool, int, int]:
        """:meth:`converged`, and the ledger's messages and bytes so far."""
        return self.converged(), self.transport.total_messages(), self.transport.total_bytes()

    def adjacency(self) -> Dict[int, Dict[str, List[int]]]:
        """The (node -> layer -> neighbour ids) record of this shard."""
        return {
            rank: {layer: node.protocol(layer).neighbors() for layer in LAYERS}
            for rank, node in self.nodes.items()
        }


def _seal(outbox: List[Message]) -> bytes:
    """One outbox as one ``bytes`` value, every descriptor a plain tuple row."""
    rows = [(src, dst, list(map(tuple, buffer)), profile) for src, dst, buffer, profile in outbox]
    return pickle.dumps(rows, pickle.HIGHEST_PROTOCOL)


def _unseal(sealed: bytes) -> List[Message]:
    """A sealed outbox's messages, every row a ``Descriptor`` again."""
    return [
        (src, dst, [_new(Descriptor, row) for row in rows], profile)
        for src, dst, rows, profile in pickle.loads(sealed)
    ]


def _shard_worker(conn, config: RunnerConfig, shard_index: int) -> None:
    """The long-lived worker process hosting one shard.

    It answers each step with the shard's sealed outboxes, except the
    round's last ``absorb`` (no layer follows): :meth:`ShardState.verdict`.
    All mutable state — the shard, its views, its RNG streams — lives in
    this frame; the function never writes a module global (SHD001), so a
    worker hosts its shard without bleed from whatever it was forked from.
    """
    def seal(outboxes: Outboxes) -> Outboxes:
        return {to: _seal(box) for to, box in outboxes.items()}

    try:
        shard = ShardState(config, shard_index)
        conn.send(("ok", None))
        while True:
            command, payload = conn.recv()
            if command == "request":
                answer = seal(shard.request(*payload))
            elif command == "respond":
                layer, inbound = payload
                answer = seal(shard.respond(layer, [_unseal(box) for box in inbound]))
            elif command == "absorb":
                layer, inbound, following = payload
                shard.absorb(layer, [_unseal(box) for box in inbound])
                answer = shard.verdict() if following is None else seal(shard.request(*following))
            elif command == "adjacency":
                answer = shard.adjacency()
            elif command == "converged":
                answer = shard.converged()
            else:  # "stop" (or anything unknown)
                return
            conn.send(("ok", answer))
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
    """Reference execution backend: the five steps, every shard in this process."""

    def __init__(self, config: RunnerConfig):
        self._shards = [ShardState(config, index) for index in range(config.n_shards)]

    def request(self, layer: str, round_index: int) -> List[Outboxes]:
        return [shard.request(layer, round_index) for shard in self._shards]

    def respond(self, layer: str, routed: List[List[Any]]) -> List[Outboxes]:
        return [shard.respond(layer, inbound) for shard, inbound in zip(self._shards, routed)]

    def absorb(self, layer: str, routed: List[List[Any]], following) -> List:
        answers = []
        for shard, inbound in zip(self._shards, routed):
            shard.absorb(layer, inbound)
            answers.append(shard.verdict() if following is None else shard.request(*following))
        return answers

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

    The parent's side of the phase protocol. Every step is one
    send/receive per shard — commands fan out before any answer is
    awaited, so shards genuinely overlap between barriers. The parent
    forwards sealed outboxes and never opens one.
    """

    def __init__(self, config: RunnerConfig, context):
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
                except OSError as error:
                    why = f"shard worker {index} could not start: {error}"
                    raise SimulationError(why) from error
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

    def request(self, layer: str, round_index: int) -> List[Outboxes]:
        return self._broadcast("request", [(layer, round_index)] * len(self._conns))

    def respond(self, layer: str, routed: List[List[Any]]) -> List[Outboxes]:
        return self._broadcast("respond", [(layer, inbound) for inbound in routed])

    def absorb(self, layer: str, routed: List[List[Any]], following) -> List:
        return self._broadcast("absorb", [(layer, inbound, following) for inbound in routed])

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
        ``"mp"`` forks one worker process per shard, degrading to inline
        only where the fork start method does not exist. ``mode_used``
        records the outcome.

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
        self.round = 0
        #: The shard ledgers' totals, as of the last round's absorb.
        self.messages = 0
        self.bytes = 0
        #: The last round's convergence verdict; ``None`` before any round.
        self._verdict: Optional[bool] = None
        self.mode_used = config.mode
        #: Optional observability sink (:class:`~repro.obs.instrument.Instrument`).
        #: When set, :meth:`run_round` times each BSP phase as ``shard:*``
        #: spans. Pure observation: the digest invariant holds with or
        #: without a sink attached (pinned by tests/scale/test_spans.py).
        self.obs: Optional[Any] = None
        fork = None
        if config.mode == "mp":
            import multiprocessing

            try:
                fork = multiprocessing.get_context("fork")
            except ValueError:  # no fork here: inline computes the identical rounds
                self.mode_used = "inline"
        self._shards = _InlineShards(config) if fork is None else _ProcessShards(config, fork)

    # -- rounds ------------------------------------------------------------------

    def run_round(self) -> bool:
        """One BSP round: both layers' three phases, in five steps.

        ``request`` (peer sampling), then ``respond`` and ``absorb`` per
        layer: the first absorb also opens the overlay's exchanges, the last
        returns every shard's verdict and ledger (:meth:`converged`,
        ``messages``, ``bytes``). Returns ``False``: a BSP round never asks
        to stop; :meth:`run` checks convergence instead.

        With an ``obs`` sink attached, every step is a span: ``shard:request``
        / ``shard:respond`` / ``shard:absorb`` cover the shard-side compute
        (in ``mp`` mode with the pipe round trips; the first ``shard:absorb``
        covers the overlay request too), and ``shard:barrier`` the parent's
        routing of outboxes between steps, four per round.
        """
        obs = self.obs
        if obs is not None:
            obs.span_begin("round")
        shards, phase, route = self._shards, self._phase, self._route
        following = [(layer, self.round) for layer in LAYERS[1:]] + [None]
        answers = phase("shard:request", shards.request, LAYERS[0], self.round)
        for layer, then in zip(LAYERS, following):
            routed = phase("shard:barrier", route, answers)
            replies = phase("shard:respond", shards.respond, layer, routed)
            routed = phase("shard:barrier", route, replies)
            answers = phase("shard:absorb", shards.absorb, layer, routed, then)
        verdicts, messages, byte_counts = zip(*answers)
        self._verdict = all(verdicts)
        self.messages, self.bytes = sum(messages), sum(byte_counts)
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

    def _route(self, outboxes: List[Outboxes]) -> List[List[Any]]:
        """Hand every shard the outboxes addressed to it, in sender order."""
        routed: List[List[Any]] = [[] for _ in range(self.config.n_shards)]
        for boxes in outboxes:
            for shard, box in boxes.items():
                routed[shard].append(box)
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
        """Whether the shape's every target edge is realized (all shards).

        The verdict of the round just run; only an engine that has run no
        round yet asks the shards.
        """
        if self._verdict is None:
            self._verdict = self._shards.converged()
        return self._verdict

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
