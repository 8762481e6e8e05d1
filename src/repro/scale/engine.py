"""The barrier-synchronous sharded engine behind the scale tier.

The serial :class:`~repro.sim.engine.Engine` runs exchanges *synchronously*
inside a round: the active node calls straight into its partner, and the
partner replies from whatever state it has at that instant. That semantics
is inherently sequential — the outcome depends on the interleaving of every
exchange in the round — so no shard partition of it can be digest-identical
to the serial run.

The scale tier therefore defines its own round model, chosen so that the
realized overlay is a pure function of ``(workload, seed)`` — independent of
shard count, shard boundaries, and process placement. Each round runs the
two layers in a fixed order (peer sampling, then the shape overlay), and
each layer advances through three globally barriered sub-phases:

- **request** — every node ages its view, picks a gossip partner with its
  *own* RNG stream, and builds its outgoing buffer from pre-round state;
- **respond** — every node answers the requests addressed to it, in
  ascending requester id, computing each reply from its current state and
  merging the received buffer before the next requester is served;
- **absorb** — every requester merges the reply it got with the candidate
  pool it saved at request time.

Within a phase a node touches only its own state, the static profile table,
and the messages addressed to it — so shards can run phases concurrently
and exchange descriptors only at the phase barriers. Determinism then rests
on two invariants, both pinned by tests/scale/:

1. every RNG draw comes from a per-node stream seeded by the
   :func:`~repro.sim.rng.spawn_seeds` SHA-256 splitter (node rank is the
   only key — shard layout never enters the derivation);
2. all order-sensitive processing happens in ascending node id, which is a
   global order no partition can perturb.

Two execution backends share the same :class:`ShardState` logic:
``mode="inline"`` steps every shard in-process (the reference), and
``mode="mp"`` hosts one long-lived :func:`_shard_worker` per shard on a
``ProcessPoolExecutor``, speaking length-delimited pickles over pipes. The
worker keeps all mutable state on its stack — never in module globals
(SHD001) — and the parent degrades to inline execution if the pool cannot
start (sandboxes without working semaphores, platforms without fork).

Simulation-side module: no wall-clock reads (DET003).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.gossip.descriptors import Descriptor
from repro.gossip.peer_sampling import select_view
from repro.gossip.selection import select_closest
from repro.gossip.views import PartialView
from repro.perf.cache import DistanceCache
from repro.perf.digest import adjacency_digest
from repro.runtime.api import (
    OVERLAY_LAYER,
    PS_LAYER,
    ElementaryStack,
    RunnerConfig,
    run_until,
)
from repro.sim.rng import RandomStreams, spawn_seeds

LAYERS = (PS_LAYER, OVERLAY_LAYER)

#: Seconds the parent waits for one shard worker's answer, at start-up and
#: at every barrier, before it gives the run up as hung.
BARRIER_TIMEOUT_S = 60.0

#: A routed message: (source node id, destination node id, descriptor buffer).
Message = Tuple[int, int, List[Descriptor]]


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


class _ScaleNode:
    """One node of the barrier-synchronous model.

    The gossip semantics mirror :class:`~repro.gossip.peer_sampling.PeerSampling`
    (TOCS 2007 push-pull, oldest-first partner, and the very same
    :func:`~repro.gossip.peer_sampling.select_view` healer/swapper step)
    and :class:`~repro.gossip.vicinity.Vicinity` (greedy closest-``k`` merge
    topped up from the random layer) — re-expressed as request/respond/absorb
    halves so an exchange can cross a shard boundary.
    """

    __slots__ = (
        "node_id",
        "profile",
        "target_degree",
        "ps_params",
        "ov_params",
        "descriptor_ttl",
        "ps_view",
        "ov_view",
        "distances",
        "rng_boot",
        "rng_ps",
        "rng_ov",
        "_advert_ps",
        "_advert_ov",
        "_pending_ps",
        "_pending_ov",
    )

    def __init__(self, node_id: int, stack: ElementaryStack, node_seed: int):
        self.node_id = node_id
        self.profile = profile = stack.profile(node_id)
        self.target_degree = stack.target_degree(node_id)
        self.ps_params = stack.params
        self.ov_params = stack.sized
        # Vicinity's default: live neighbours refresh far faster than this.
        self.descriptor_ttl = max(24, 2 * stack.sized.view_size)
        self.ps_view = PartialView(stack.params.view_size)
        self.ov_view = PartialView(stack.sized.view_size)
        self.distances = DistanceCache(stack.proximity, profile)
        streams = RandomStreams(node_seed)
        self.rng_boot = streams.stream("bootstrap")
        self.rng_ps = streams.stream(PS_LAYER)
        self.rng_ov = streams.stream(OVERLAY_LAYER)
        self._advert_ps = Descriptor(node_id, age=0, profile=None)
        self._advert_ov = Descriptor(node_id, age=0, profile=profile)
        self._pending_ps: Optional[List[Descriptor]] = None
        self._pending_ov: Optional[List[Descriptor]] = None

    # -- bootstrap --------------------------------------------------------------

    def bootstrap(self, n_nodes: int) -> None:
        """WireKOut over the full population, without materializing it.

        Sampling indices from ``range(n_nodes - 1)`` and shifting past our
        own id draws the same distribution as sampling an explicit
        candidate list, at O(view_size) instead of O(n_nodes) per node.
        """
        count = min(self.ps_params.view_size, n_nodes - 1)
        if count <= 0:
            return
        for pick in self.rng_boot.sample(range(n_nodes - 1), count):
            node_id = pick if pick < self.node_id else pick + 1
            self.ps_view.insert(Descriptor(node_id, age=0, profile=None))

    # -- peer sampling ----------------------------------------------------------

    def ps_request(self) -> Optional[Tuple[int, List[Descriptor]]]:
        self.ps_view.increase_age()
        partner = self.ps_view.oldest()
        if partner is None:
            return None
        buffer = [self._advert_ps]
        buffer.extend(self.ps_view.sample(self.rng_ps, self.ps_params.gossip_size - 1))
        self._pending_ps = buffer
        return partner.node_id, buffer

    def ps_respond(self, received: List[Descriptor]) -> List[Descriptor]:
        reply = [self._advert_ps]
        reply.extend(self.ps_view.sample(self.rng_ps, self.ps_params.gossip_size - 1))
        self._ps_apply(sent=reply, received=received)
        return reply

    def ps_absorb(self, reply: List[Descriptor]) -> None:
        sent, self._pending_ps = self._pending_ps, None
        self._ps_apply(sent=sent or [], received=reply)

    def _ps_apply(self, sent: List[Descriptor], received: List[Descriptor]) -> None:
        pool = select_view(
            self.node_id,
            {d.node_id: d for d in self.ps_view},
            sent,
            received,
            self.ps_params,
            self.rng_ps,
        )
        self.ps_view.replace(pool.values())

    # -- shape overlay ----------------------------------------------------------

    def ov_request(
        self, profiles: List, age0: List[Descriptor]
    ) -> Optional[Tuple[int, List[Descriptor]]]:
        self.ov_view.increase_age()
        partner = self.ov_view.oldest()
        if partner is not None:
            partner_id = partner.node_id
        else:
            # Empty overlay view (round 0): bootstrap from the random layer,
            # exactly Vicinity's fallback.
            candidates = [n for n in self.ps_view.ids() if n != self.node_id]
            if not candidates:
                self._pending_ov = None
                return None
            partner_id = self.rng_ov.choice(candidates)
        pool = self._ov_pool(age0)
        buffer = select_closest(
            pool + [self._advert_ov],
            profiles[partner_id],
            self.distances,
            self.ov_params.gossip_size,
            exclude_id=partner_id,
            max_age=self.descriptor_ttl,
        )
        self._pending_ov = pool
        return partner_id, buffer

    def ov_respond(
        self,
        requester_id: int,
        received: List[Descriptor],
        profiles: List,
        age0: List[Descriptor],
    ) -> List[Descriptor]:
        pool = self._ov_pool(age0)
        reply = select_closest(
            pool + [self._advert_ov],
            profiles[requester_id],
            self.distances,
            self.ov_params.gossip_size,
            exclude_id=requester_id,
            max_age=self.descriptor_ttl,
        )
        self._ov_merge(pool, received)
        return reply

    def ov_absorb(self, reply: List[Descriptor]) -> None:
        pool, self._pending_ov = self._pending_ov, None
        self._ov_merge(pool or [], reply)

    def _ov_pool(self, age0: List[Descriptor]) -> List[Descriptor]:
        """View entries plus fresh candidates harvested from peer sampling.

        In the serial engine Vicinity peeks its peers' cached self
        descriptors; here profiles are static per run, so the shard keeps
        one immutable age-0 descriptor per node (``age0``) and every pool
        shares those — no cross-shard read, no per-pool minting.
        """
        pool = self.ov_view.descriptors()
        own = self.node_id
        for node_id in self.ps_view.ids():
            if node_id != own:
                pool.append(age0[node_id])
        return pool

    def _ov_merge(self, pool: List[Descriptor], received: List[Descriptor]) -> None:
        best = select_closest(
            pool + [d.aged() for d in received],
            self.profile,
            self.distances,
            self.ov_params.view_size,
            exclude_id=self.node_id,
            max_age=self.descriptor_ttl,
        )
        self.ov_view.replace(best)

    # -- exposure ----------------------------------------------------------------

    def neighbors(self, layer: str) -> List[int]:
        if layer == PS_LAYER:
            return self.ps_view.ids()
        best = self.ov_view.closest_to(self.target_degree, self.distances)
        return [descriptor.node_id for descriptor in best]


class ShardState:
    """One shard's nodes plus the static tables shared by every shard.

    The same class backs both execution modes: the inline engine holds a
    list of these, the pool worker builds exactly one from the pickled
    :class:`~repro.runtime.api.RunnerConfig` on its own stack.
    """

    def __init__(self, config: RunnerConfig, shard_index: int):
        plan = ShardPlan(config.n_nodes, config.n_shards)
        n = config.n_nodes
        stack = ElementaryStack(config.shape, n, config.gossip)
        shape = stack.shape
        self.profiles = [stack.profile(rank) for rank in range(n)]
        # One immutable age-0 descriptor per node, shared by every harvest
        # pool this shard builds (descriptors are immutable, so sharing is
        # free) — the static table the BSP model reads instead of peeking
        # live peers.
        self.age0 = [
            Descriptor(rank, age=0, profile=self.profiles[rank]) for rank in range(n)
        ]
        self._targets = {
            rank: shape.target_neighbors(rank, n) for rank in plan.members(shard_index)
        }
        node_seeds = spawn_seeds(config.seed, n, "scale", config.workload)
        self.nodes: Dict[int, _ScaleNode] = {}
        for rank in plan.members(shard_index):
            node = _ScaleNode(rank, stack, node_seeds[rank])
            node.bootstrap(n)
            self.nodes[rank] = node

    # -- the three phases ------------------------------------------------------

    def request(self, layer: str) -> List[Message]:
        """Phase A: every owned node builds its outgoing request."""
        out: List[Message] = []
        for rank, node in self.nodes.items():  # insertion order == ascending
            if layer == PS_LAYER:
                built = node.ps_request()
            else:
                built = node.ov_request(self.profiles, self.age0)
            if built is not None:
                partner_id, buffer = built
                out.append((rank, partner_id, buffer))
        return out

    def respond(self, layer: str, incoming: List[Message]) -> List[Message]:
        """Phase B: owned nodes answer, ascending node then requester id."""
        by_dst: Dict[int, List[Tuple[int, List[Descriptor]]]] = {}
        for src, dst, buffer in incoming:
            by_dst.setdefault(dst, []).append((src, buffer))
        replies: List[Message] = []
        for dst in sorted(by_dst):
            node = self.nodes[dst]
            for src, buffer in sorted(by_dst[dst], key=lambda item: item[0]):
                if layer == PS_LAYER:
                    reply = node.ps_respond(buffer)
                else:
                    reply = node.ov_respond(src, buffer, self.profiles, self.age0)
                replies.append((dst, src, reply))
        return replies

    def absorb(self, layer: str, replies: List[Message]) -> None:
        """Phase C: owned requesters merge their replies, ascending id."""
        for _, requester, reply in sorted(replies, key=lambda item: item[1]):
            node = self.nodes[requester]
            if layer == PS_LAYER:
                node.ps_absorb(reply)
            else:
                node.ov_absorb(reply)

    def converged(self) -> bool:
        """Whether every owned node covers its target neighbourhood.

        The shard-local half of ``Shape.converged``: the global check is
        exactly the conjunction over shards, and keeping it shard-side
        avoids shipping the full adjacency across the pool every round.
        """
        for rank, node in self.nodes.items():
            wanted = self._targets[rank]
            if wanted and not wanted <= set(node.neighbors(OVERLAY_LAYER)):
                return False
        return True

    def adjacency(self) -> Dict[int, Dict[str, List[int]]]:
        """The (node -> layer -> neighbour ids) record of this shard."""
        return {
            rank: {layer: node.neighbors(layer) for layer in LAYERS}
            for rank, node in self.nodes.items()
        }


def _shard_worker(conn, config: RunnerConfig, shard_index: int) -> None:
    """The long-lived pool task hosting one shard.

    All mutable state — the shard, its views, its RNG streams — lives in
    this frame; the function never writes a module global (SHD001), so a
    worker process can host shards of successive runs without bleed.
    """
    try:
        shard = ShardState(config, shard_index)
        conn.send(("ready", shard_index))
        while True:
            command, payload = conn.recv()
            if command == "request":
                conn.send(("ok", shard.request(payload)))
            elif command == "respond":
                layer, routed = payload
                conn.send(("ok", shard.respond(layer, routed)))
            elif command == "absorb":
                layer, routed = payload
                shard.absorb(layer, routed)
                conn.send(("ok", None))
            elif command == "adjacency":
                conn.send(("ok", shard.adjacency()))
            elif command == "converged":
                conn.send(("ok", shard.converged()))
            else:  # "stop" (or anything unknown): acknowledge and exit
                conn.send(("ok", None))
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

    def request(self, layer: str) -> List[List[Message]]:
        return [shard.request(layer) for shard in self._shards]

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
    """Pool-backed execution: one pipe-driven worker per shard.

    The parent's side of the phase protocol. Every phase is one
    send/receive per shard — requests fan out before any reply is awaited,
    so shards genuinely overlap between barriers.
    """

    def __init__(self, config: RunnerConfig):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context()
        self._executor = ProcessPoolExecutor(
            max_workers=config.n_shards, mp_context=context
        )
        self._conns = []
        self._futures = []
        child_ends = []
        try:
            for index in range(config.n_shards):
                parent_end, child_end = context.Pipe()
                future = self._executor.submit(
                    _shard_worker, child_end, config, index
                )
                self._conns.append(parent_end)
                self._futures.append(future)
                child_ends.append(child_end)
            for conn in self._conns:
                if not conn.poll(BARRIER_TIMEOUT_S):
                    raise RuntimeError("shard worker failed to report ready")
                status, _ = conn.recv()
                if status != "ready":
                    raise RuntimeError(f"shard worker failed to start: {status}")
            # Only now is it safe to drop the child ends: "ready" proves the
            # submission was pickled and delivered (the executor's feeder
            # thread pickles asynchronously — closing earlier races it).
            for child_end in child_ends:
                child_end.close()
        except BaseException:
            for child_end in child_ends:
                try:
                    child_end.close()
                except OSError:
                    pass
            self.close()
            raise

    def _broadcast(self, command: str, payloads) -> List:
        for conn, payload in zip(self._conns, payloads):
            conn.send((command, payload))
        results = []
        for index, conn in enumerate(self._conns):
            if not conn.poll(BARRIER_TIMEOUT_S):
                self._terminate()
                self.close()
                raise SimulationError(
                    f"shard worker {index} did not answer {command!r} "
                    f"within {BARRIER_TIMEOUT_S:g} s"
                )
            status, value = conn.recv()
            if status != "ok":
                raise RuntimeError(f"shard worker failed: {value}")
            results.append(value)
        return results

    def _terminate(self) -> None:
        """Kill every pool process: a hung worker never reads ``stop``, and
        ``ProcessPoolExecutor`` has no public way to kill its workers."""
        for process in list((self._executor._processes or {}).values()):
            process.terminate()

    def request(self, layer: str) -> List[List[Message]]:
        return self._broadcast("request", [layer] * len(self._conns))

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
        for conn in self._conns:
            try:
                if conn.poll(5):
                    conn.recv()
            except (OSError, EOFError):
                pass
            conn.close()
        self._conns = []
        self._executor.shutdown(wait=False, cancel_futures=True)


class ShardedEngine:
    """The scale tier's engine: BSP rounds over a sharded node population.

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
        ``"mp"`` hosts one worker per shard on a process pool, degrading to
        inline if the pool cannot start. ``mode_used`` records the outcome.

    Every node's views are :class:`~repro.gossip.views.PartialView`s,
    whatever ``backend`` says (the field is still validated, and read by
    nothing here).

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
                # No usable pool (sandboxed semaphores, missing fork):
                # the inline backend computes the identical rounds.
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
        shard_of = self.plan.shard_of
        n_shards = self.config.n_shards
        if obs is not None:
            obs.span_begin("round")
        for layer in LAYERS:
            if obs is not None:
                obs.span_begin("shard:request")
            requests = self._shards.request(layer)
            if obs is not None:
                obs.span_end("shard:request")
                obs.span_begin("shard:barrier")
            routed: List[List[Message]] = [[] for _ in range(n_shards)]
            for batch in requests:
                for message in batch:
                    self._account(message)
                    routed[shard_of(message[1])].append(message)
            if obs is not None:
                obs.span_end("shard:barrier")
                obs.span_begin("shard:respond")
            replies = self._shards.respond(layer, routed)
            if obs is not None:
                obs.span_end("shard:respond")
                obs.span_begin("shard:barrier")
            returned: List[List[Message]] = [[] for _ in range(n_shards)]
            for batch in replies:
                for message in batch:
                    self._account(message)
                    returned[shard_of(message[1])].append(message)
            if obs is not None:
                obs.span_end("shard:barrier")
                obs.span_begin("shard:absorb")
            self._shards.absorb(layer, returned)
            if obs is not None:
                obs.span_end("shard:absorb")
        if obs is not None:
            obs.span_end("round")
            obs.gauge("shard_messages", self.messages)
            obs.gauge("shard_bytes", self.bytes)
        self.round += 1
        return False

    def run(self, max_rounds: int) -> int:
        """Run up to ``max_rounds`` BSP rounds; stop early on convergence."""
        if max_rounds < 0:
            raise SimulationError(f"max_rounds must be >= 0, got {max_rounds}")
        start = self.round
        run_until(self, self.converged, max_rounds)
        return self.round - start

    def _account(self, message: Message) -> None:
        self.messages += 1
        self.bytes += self.costs.message_bytes(len(message[2]))

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
