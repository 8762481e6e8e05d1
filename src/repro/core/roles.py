"""Node-assignment rules and the resulting role map.

The DSL's first element group is "a list of the basic shapes [...] and some
rules to decide which node will be assigned to which component". An
:class:`AssignmentRule` is such a rule: given the node population and the
assembly's component declarations, it produces a :class:`RoleMap` giving each
node a component and a rank within it.

Roles are a deterministic function of the previous role map and the live
id set, so every node could recompute its own role locally from the
membership information the gossip layers give it — the property that keeps
the mapping "transparent to developers" as the paper demands. With no
previous map (deploy) a rule deals consecutive slices of its own ordering of
the ids to the components; with one (every rebalance, after failures or onto
a new assembly) every component first keeps its live members, so a failure
wave or a resize moves only the overflow of shrunken components and refills
the others from the rest of the population (see :func:`cut`). A new
assembly that shares no component name with the old one gets the fresh cut.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import AssemblyError, TopologyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.assembly import Assembly


#: Pseudo-component for nodes beyond the assembly's fixed quotas: they idle
#: with a minimal profile until a rebalance promotes them into a real
#: component (e.g. to replace a crashed member).
SPARE_COMPONENT = "_spare"


class Role(NamedTuple):
    """One node's place in the assembly."""

    component: str
    rank: int
    comp_size: int

    @property
    def is_spare(self) -> bool:
        return self.component == SPARE_COMPONENT


class RoleMap:
    """The assignment of every node to a (component, rank) role."""

    def __init__(self, roles: Dict[int, Role]):
        self._roles = dict(roles)
        self._members: Dict[str, List[Tuple[int, int]]] = {}
        for node_id, role in sorted(self._roles.items()):
            self._members.setdefault(role.component, []).append((node_id, role.rank))
        for members in self._members.values():
            members.sort(key=lambda pair: pair[1])

    def role(self, node_id: int) -> Role:
        try:
            return self._roles[node_id]
        except KeyError:
            raise TopologyError(f"node {node_id} has no role") from None

    def has_role(self, node_id: int) -> bool:
        return node_id in self._roles

    def members(self, component: str) -> List[Tuple[int, int]]:
        """``(node_id, rank)`` pairs of a component, ordered by rank."""
        return list(self._members.get(component, []))

    def member_ids(self, component: str) -> List[int]:
        return [node_id for node_id, _ in self._members.get(component, [])]

    def component_size(self, component: str) -> int:
        return len(self._members.get(component, []))

    def components(self) -> List[str]:
        return sorted(self._members)

    def node_ids(self) -> List[int]:
        return sorted(self._roles)

    def __len__(self) -> int:
        return len(self._roles)

    def __repr__(self) -> str:
        sizes = {name: len(members) for name, members in self._members.items()}
        return f"RoleMap({sizes})"


class AssignmentRule(ABC):
    """A deterministic node → (component, rank) mapping rule."""

    name: str = ""

    @abstractmethod
    def order(self, node_ids: Iterable[int]) -> List[int]:
        """The distinct ``node_ids`` in the order this rule deals them."""

    def assign(
        self,
        node_ids: Iterable[int],
        assembly: "Assembly",
        previous: Optional[RoleMap] = None,
    ) -> RoleMap:
        """Compute the role map for ``node_ids`` under ``assembly``.

        ``previous`` is the map being replaced: its live members keep their
        component where the new quotas allow (see :func:`cut`).
        """
        return cut(self.order(node_ids), assembly, previous)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AssignmentRule):
            return NotImplemented
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self).__name__)


def _apportion(total: int, weights: Dict[str, float]) -> Dict[str, int]:
    """Largest-remainder apportionment of ``total`` across ``weights``.

    Every key receives at least one unit; requires ``total >= len(weights)``.
    """
    if total < len(weights):
        raise AssemblyError(
            f"cannot apportion {total} node(s) across {len(weights)} component(s)"
        )
    total_weight = sum(weights.values())
    shares = [(name, total * weight / total_weight) for name, weight in weights.items()]
    floors = {name: max(1, int(share)) for name, share in shares}
    leftover = total - sum(floors.values())
    if leftover < 0:
        # The max(1, ...) floors overshot; shave the largest quotas first.
        for name, _ in sorted(shares, key=lambda s: -s[1]):
            while leftover < 0 and floors[name] > 1:
                floors[name] -= 1
                leftover += 1
    remainders = sorted(shares, key=lambda s: (s[1] - int(s[1]), s[0]), reverse=True)
    index = 0
    while leftover > 0 and remainders:
        name = remainders[index % len(remainders)][0]
        floors[name] += 1
        leftover -= 1
        index += 1
    return floors


def _component_quotas(
    node_count: int, assembly: "Assembly"
) -> Dict[str, int]:
    """Split ``node_count`` nodes across components.

    Components with a fixed ``size`` get exactly that many nodes; the rest
    of the population goes to weighted components by largest-remainder
    apportionment. Every component receives at least one node.

    Graceful degradation: when the (live) population cannot satisfy the
    fixed sizes — e.g. after a failure wave — the fixed sizes are treated as
    relative targets and scaled down proportionally, so the assembly shrinks
    instead of dying. Surplus nodes of an all-fixed assembly become spares
    (handled by the callers).
    """
    specs = list(assembly.components.values())
    if node_count < len(specs):
        raise AssemblyError(
            f"{node_count} node(s) cannot populate {len(specs)} component(s)"
        )
    fixed = {spec.name: spec.size for spec in specs if spec.size is not None}
    fixed_total = sum(fixed.values())
    weighted = [spec for spec in specs if spec.size is None]
    remaining = node_count - fixed_total
    if remaining < len(weighted):
        # Degraded mode: not enough nodes for the declared sizes. Treat
        # every declaration as a relative weight and shrink proportionally.
        targets: Dict[str, float] = dict(fixed)
        if weighted:
            mean_fixed = (fixed_total / len(fixed)) if fixed else 8.0
            for spec in weighted:
                targets[spec.name] = mean_fixed * spec.weight
        quotas = _apportion(node_count, targets)
    else:
        quotas = dict(fixed)
        if weighted:
            quotas.update(
                _apportion(remaining, {spec.name: spec.weight for spec in weighted})
            )
    for spec in specs:
        spec.shape.validate_size(quotas[spec.name])
    return quotas


def cut(
    ordered: Sequence[int], assembly: "Assembly", previous: Optional[RoleMap] = None
) -> RoleMap:
    """Deal the population ``ordered`` (a rule's order) to the components.

    1. Quotas come from :func:`_component_quotas` over the whole population.
    2. Each component keeps its members under ``previous`` that are still in
       the population, in their old rank order, up to its quota.
    3. Everyone else — overflow of shrunken components, spares, joiners,
       members of components the assembly no longer declares — fills the
       remaining places in declaration order, taken in ``ordered`` order.
    4. Ranks are the kept members, then the newcomers; whoever is left over
       becomes a spare (see :data:`SPARE_COMPONENT`).

    Without ``previous`` this is the plain contiguous cut of ``ordered``.
    """
    quotas = _component_quotas(len(ordered), assembly)
    population = set(ordered)
    dealt: Dict[str, List[int]] = {}
    for name in assembly.components:
        former = [] if previous is None else previous.member_ids(name)
        kept = [node_id for node_id in former if node_id in population]
        dealt[name] = kept[: quotas[name]]
    placed = {node_id for members in dealt.values() for node_id in members}
    pool = iter([node_id for node_id in ordered if node_id not in placed])
    roles: Dict[int, Role] = {}
    for name, members in dealt.items():
        quota = quotas[name]
        members.extend(islice(pool, quota - len(members)))
        for rank, node_id in enumerate(members):
            roles[node_id] = Role(name, rank, quota)
    leftover = list(pool)
    for rank, node_id in enumerate(leftover):
        roles[node_id] = Role(SPARE_COMPONENT, rank, len(leftover))
    return RoleMap(roles)


class ProportionalAssignment(AssignmentRule):
    """Contiguous split of the sorted node ids, proportional to weights.

    The simplest deterministic rule: sort the population by id and deal
    consecutive slices to components in declaration order. Ranks follow id
    order within each slice.
    """

    name = "proportional"

    def order(self, node_ids: Iterable[int]) -> List[int]:
        return sorted(set(node_ids))


class HashAssignment(AssignmentRule):
    """Pseudo-random assignment by hashing node ids into weighted buckets.

    The hash orders the population, then the same cut as the contiguous
    split deals it, so quotas are respected exactly and ranks follow the hash
    order; a component's members are a pseudo-random sample of the ids, not
    an id range. A cut without a previous map still shifts every later
    component boundary when a node joins or leaves; a rebalance keeps
    survivors in place whatever the order (see :func:`cut`).
    """

    name = "hash"

    def __init__(self, salt: int = 0):
        self.salt = salt

    def _key(self, node_id: int) -> int:
        material = f"{self.salt}:{node_id}".encode("utf-8")
        return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")

    def order(self, node_ids: Iterable[int]) -> List[int]:
        return sorted(set(node_ids), key=lambda nid: (self._key(nid), nid))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashAssignment):
            return NotImplemented
        return self.salt == other.salt

    def __hash__(self) -> int:
        return hash(("hash", self.salt))


_RULES = {
    "proportional": ProportionalAssignment,
    "hash": HashAssignment,
}


def make_assignment(name: str) -> AssignmentRule:
    """Instantiate an assignment rule from its DSL surface name."""
    try:
        return _RULES[name]()
    except KeyError:
        known = ", ".join(sorted(_RULES))
        raise AssemblyError(
            f"unknown assignment rule {name!r} (known: {known})"
        ) from None
