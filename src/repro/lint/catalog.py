"""The rule catalog: every diagnostic code the static analyzers can emit.

Four rule families, each naming what it guards:

- ``RPR…`` — assembly-program rules, checked on a parsed ``.topo`` program
  or an :class:`~repro.core.Assembly` *before* anything is simulated.
  ``RPR0xx/1xx`` are errors (the topology cannot work as written),
  ``RPR2xx`` are warnings (it will deploy, but something looks unintended).
- ``DET…`` — determinism rules over the framework's own Python source
  (``repro lint --self-check``): one code per nondeterminism source. A
  source inside its site scope — the simulation packages — is an error at
  its line; elsewhere it is an error where the runtime or scale roots reach
  it. They machine-enforce the property that makes the multi-seed
  evaluation honest: all stochastic behavior flows from
  :mod:`repro.sim.rng` and nothing order-unstable feeds a protocol
  decision.
- ``SHD…`` — shard-safety rules (also ``--self-check``): the statically
  detectable hazards that would break digest identity between the inline
  and the multi-process shard workers (shared module state mutated from
  round hot paths, RNGs cached outside the per-shard ``ctx`` discipline).
- ``PEER…`` — the peer seam (also ``--self-check``): a per-file rule over
  the gossip layers, which learn about other nodes through ``ctx.peers``
  alone.

``docs/lint.md`` renders this catalog with rationale and examples; keep the
two in sync when adding a rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.diagnostics import ERROR, WARNING


@dataclass(frozen=True)
class Rule:
    """Static metadata of one lint rule."""

    code: str
    severity: str
    title: str
    rationale: str


_RULES = [
    # -- syntax / program-level errors ---------------------------------------
    Rule(
        "RPR001",
        ERROR,
        "syntax error",
        "The file is not a well-formed DSL program; nothing else can be checked.",
    ),
    Rule(
        "RPR100",
        ERROR,
        "semantic error",
        "A declaration violates a basic semantic rule: unknown shape, bad "
        "shape/size/weight parameter, unknown port selector, unknown "
        "assignment rule, duplicate port, or an invalid identifier.",
    ),
    Rule(
        "RPR101",
        ERROR,
        "link references undeclared component",
        "A link endpoint names a component that is never declared; the link "
        "can never be realized and the component it should join stays isolated.",
    ),
    Rule(
        "RPR102",
        ERROR,
        "link references undeclared port",
        "A link endpoint names a port its component does not declare, so no "
        "port manager will ever be elected for it.",
    ),
    Rule(
        "RPR103",
        ERROR,
        "duplicate link",
        "The same undirected port-to-port connection is declared twice "
        "(possibly via replica fan-out); one of them is dead weight or a typo.",
    ),
    Rule(
        "RPR104",
        ERROR,
        "self-link",
        "Both endpoints of a link are the same port; a component cannot be "
        "bridged to itself through a single port.",
    ),
    Rule(
        "RPR105",
        ERROR,
        "shape size infeasible",
        "A component's fixed size cannot host its shape: a hypercube needs a "
        "power of two, a grid/torus a composite size (or an explicit rows "
        "divisor), and every shape at least one member. The overlay would "
        "gossip forever without converging.",
    ),
    Rule(
        "RPR106",
        ERROR,
        "node budget infeasible",
        "The declared ``nodes N`` cannot cover the sum of fixed component "
        "sizes (plus one node per weighted component); deployment would fail "
        "or starve a component entirely.",
    ),
    Rule(
        "RPR107",
        ERROR,
        "duplicate component",
        "Two component declarations (or a replica expansion) produce the same "
        "component name.",
    ),
    Rule(
        "RPR108",
        ERROR,
        "bad replica reference",
        "A link endpoint indexes a non-replicated component, omits the index "
        "of a replicated one, uses an out-of-range replica index, or fans out "
        "on both sides.",
    ),
    Rule(
        "RPR109",
        ERROR,
        "empty topology",
        "The program declares no components at all.",
    ),
    # -- warnings ------------------------------------------------------------
    Rule(
        "RPR201",
        WARNING,
        "port never linked",
        "A declared port is not referenced by any link. The component still "
        "elects a manager for it every round — either the port is vestigial "
        "or a link was forgotten.",
    ),
    Rule(
        "RPR202",
        WARNING,
        "unreachable component island",
        "The component graph is not connected: some components can never "
        "exchange members with the rest of the assembly: no link or UO2 "
        "contact can reach them.",
    ),
    Rule(
        "RPR203",
        WARNING,
        "selector over-subscription",
        "Two linked ports of one component use selectors that provably elect "
        "the same member (e.g. ``hub`` and ``rank(0)``); that node becomes "
        "the bridge for several inter-component links at once.",
    ),
    Rule(
        "RPR204",
        WARNING,
        "selector rank unsatisfiable",
        "A ``rank(K)`` selector targets a rank outside the component's fixed "
        "size; the port will never have a manager and links through it "
        "stay down.",
    ),
    Rule(
        "RPR205",
        WARNING,
        "weighted component may starve",
        "Under the declared node budget, a weighted (unsized) component's "
        "proportional share rounds to zero members.",
    ),
    Rule(
        "RPR206",
        WARNING,
        "degenerate shape size",
        "A component's fixed size is below its shape's meaningful minimum "
        "(``Shape.min_size``): a 2-ring is an edge, a 1-clique replicates "
        "nothing. It deploys, but probably not what was meant.",
    ),
    # -- determinism (self-check) -------------------------------------------
    Rule(
        "DET000",
        ERROR,
        "cannot parse",
        "A module of the checked tree is not valid Python; none of the "
        "source rules can vouch for it, so it is reported rather than "
        "skipped.",
    ),
    Rule(
        "DET001",
        ERROR,
        "global random draw",
        "Direct ``random.<fn>()`` calls draw from the interpreter-global RNG, "
        "bypassing the seed-derived streams of ``repro.sim.rng``; two runs "
        "with the same master seed would diverge.",
    ),
    Rule(
        "DET002",
        ERROR,
        "unseeded RNG construction",
        "``random.Random()`` with no seed (or any ``SystemRandom``) is seeded "
        "from the OS; all RNG instances must derive from a named stream or an "
        "explicit seed.",
    ),
    Rule(
        "DET003",
        ERROR,
        "wall-clock read",
        "``time.time``/``perf_counter``/``datetime.now`` in a simulation "
        "package, or reachable from a round root, makes behavior depend on "
        "host speed; simulated logic must use round counters only.",
    ),
    Rule(
        "DET004",
        ERROR,
        "iteration over unordered set",
        "Iterating (or materializing with ``list``/``tuple``/``enumerate``) a "
        "bare ``set``/``frozenset`` where a protocol decision can see the "
        "result leaks hash ordering into it; wrap it in ``sorted(...)``.",
    ),
    Rule(
        "DET005",
        ERROR,
        "dict.popitem ordering hazard",
        "``dict.popitem()`` couples layer-exchange behavior to insertion "
        "order details; pop an explicit, deterministic key instead.",
    ),
    Rule(
        "DET006",
        ERROR,
        "object identity reachable from round hot path",
        "``id()`` values are CPython heap addresses: unstable between runs, "
        "interpreters, and shard processes. Any use on a round's call chain "
        "(keys, ordering, tie-breaking) breaks digest identity.",
    ),
    Rule(
        "DET007",
        ERROR,
        "environment read reachable from round hot path",
        "``os.environ``/``os.getenv`` on a round's call chain makes "
        "simulated behavior depend on process environment, which differs "
        "between hosts and between sharded workers; read configuration "
        "once at harness level and pass it down explicitly.",
    ),
    # -- shard safety (self-check) -----------------------------------------
    Rule(
        "SHD001",
        ERROR,
        "module global mutated in round hot path",
        "A round hot path mutates module-level mutable state. A module "
        "global is process-wide: sharded workers each mutate their own "
        "copy in their own order and silently diverge; thread the state "
        "through ``ctx`` or per-node objects instead.",
    ),
    Rule(
        "SHD002",
        ERROR,
        "RNG cached outside per-shard ctx ownership",
        "An RNG constructed at module or class scope outlives the "
        "per-node/per-shard ``ctx`` threading discipline (the "
        "``spawn_seeds`` ownership rule): it is consumed in arrival order, "
        "which differs between serial and sharded schedules.",
    ),
    # -- peer seam (self-check) --------------------------------------------
    Rule(
        "PEER001",
        ERROR,
        "gossip layer reads past the peer seam",
        "In ``sim/protocol.py``, ``gossip/`` and ``core/layers/``, a layer "
        "learns about another node only by asking ``ctx.peers`` "
        "(``is_alive``, ``runs``, ``profile``, ``advert``); of "
        "``ctx.network``, the run's global oracle, it reads the "
        "``rendezvous`` alone. Local aliases count the same. A read past the "
        "seam is knowledge no real node has, and it would outlive every swap "
        "of what ``ctx.peers`` is.",
    ),
]

#: code → :class:`Rule` for every known diagnostic.
CATALOG: Dict[str, Rule] = {rule.code: rule for rule in _RULES}


def severity_of(code: str) -> str:
    """The catalog severity for ``code`` (errors for unknown codes)."""
    rule = CATALOG.get(code)
    return rule.severity if rule is not None else ERROR
