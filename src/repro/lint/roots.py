"""Engine-round entry points and the hot set they reach.

A static call graph cannot see through the engine's dynamic dispatch —
``protocol.step(ctx)`` fans out to whatever layers a node stacks at
runtime, ``observer.observe(...)`` to whatever instruments are attached.
Rather than over-approximating every attribute call, the source passes
start from a declared set of *roots*: the functions a runner invokes every
round. Anything reachable from a root is on the digest's critical path, so
a nondeterminism source there makes the same seed give different runs —
and the round, sharded and live runners disagree — even when every
individual call site looks clean.

Patterns are ``<rel-path-glob>::<qualname-glob>`` (``fnmatch`` on both
halves; a pattern without ``::`` matches any path), matched against every
project function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Iterable, List, Sequence, Set

from repro.lint.callgraph import CallGraph
from repro.lint.symbols import SymbolTable

#: The round engine's entry points, in engine-phase order: the round driver
#: itself, per-node protocol steps, round-boundary controls, the observe
#: phase, and the act (remediation) phase. Membership hooks (`on_join`,
#: `forget`) run inside churn controls and gossip exchanges.
DEFAULT_ROOTS: Sequence[str] = (
    "sim/engine.py::Engine.run_round",
    "sim/engine.py::Engine.run",
    # The sharded scale engine: its round driver runs in the parent, the
    # worker loop in the forked shard processes — both sides of the
    # barrier protocol are digest-critical, and the worker is additionally
    # subject to the shard-safety (SHD) pass: mutating a module global
    # there diverges from the inline backend, which shares one interpreter.
    "scale/engine.py::ShardedEngine.run_round",
    "scale/engine.py::_shard_worker",
    # The live UDP runtime: the round coroutine and the receive handler
    # both run on the node's loop and call straight into the gossip
    # layers, so a nondeterminism source reachable from either diverges a
    # swarm node's protocol state from its simulated twin. The coroutine
    # is the root, not run_round, which only hands it to the loop. (The
    # runtime's own wall-clock reads are confined to the reviewed _now.)
    "runtime/net.py::NetRunner._round",
    "runtime/net.py::NetEndpoint.on_datagram",
    "runtime/swarm.py::_swarm_node",
    # The per-node telemetry endpoint: the /metrics handler runs on the
    # daemon HTTP thread and reads collector state only — anything else
    # it could reach from there is a leak the source pass must see.
    "runtime/telemetry.py::_MetricsHandler.do_GET",
    "*::*.step",
    # GossipProtocol.step/on_request are template methods: ``self._offer``
    # resolves to the base class only, so the per-layer overrides the
    # exchange actually dispatches to are declared here.
    "*::*.on_request",
    "*::*._begin_round",
    "*::*._choose_partner",
    "*::*._offer",
    "*::*._absorb",
    "*::*._unreachable",
    "*::*.before_round",
    "*::*.observe",
    "*::*.act",
    "*::*.on_join",
    "*::*.forget",
)


@dataclass
class ProjectModel:
    """The analyzed project: symbols, call graph, and the hot set."""

    table: SymbolTable
    graph: CallGraph
    roots: List[str]
    hot: Set[str]


def match_roots(
    table: SymbolTable, patterns: Iterable[str] = DEFAULT_ROOTS
) -> List[str]:
    """Qualified names of every project function matching a root pattern."""
    matched: List[str] = []
    compiled = []
    for pattern in patterns:
        path_glob, sep, name_glob = pattern.partition("::")
        if not sep:
            path_glob, name_glob = "*", pattern
        compiled.append((path_glob, name_glob))
    for func in table.iter_functions():
        for path_glob, name_glob in compiled:
            if fnmatch(func.rel_path, path_glob) and fnmatch(
                func.local_qname, name_glob
            ):
                matched.append(func.qname)
                break
    return matched


def analyze(table: SymbolTable, patterns: Iterable[str] = DEFAULT_ROOTS) -> ProjectModel:
    """Call graph, matched roots and hot set of a parsed project."""
    graph = CallGraph.build(table)
    roots = match_roots(table, patterns)
    return ProjectModel(table, graph, roots, graph.reachable_from(roots))
