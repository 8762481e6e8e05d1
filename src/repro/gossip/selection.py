"""Proximity functions and descriptor-selection helpers.

Vicinity and T-Man are *generic* greedy optimizers: the target topology is
entirely encoded in a user-supplied proximity (or ranking) function. This
module defines that interface and the ranking helpers shared by the overlay
protocols.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.gossip.descriptors import Descriptor

#: Profiles are opaque to the gossip layer; shapes and the runtime define them.
Profile = Any


def top_k(decorated: List[tuple], k: int) -> List[tuple]:
    """The ``k`` smallest decorated tuples, in ascending order.

    Exactly ``sorted(decorated)[:k]`` either way (the tuples embed unique
    node ids, so the order is total and both algorithms must agree); the
    split picks the faster one. CPython's C ``sorted`` beats the partly
    Python-level ``heapq.nsmallest`` loop until the pool is several times
    larger than ``k`` — gossip pools are usually view+buffer sized, but
    assembly-fed candidate pools (UO1 → core feeds, large helper layers)
    do outgrow it.
    """
    if len(decorated) <= 4 * k:
        return sorted(decorated)[:k]
    return heapq.nsmallest(k, decorated)


class Proximity:
    """A proximity function over layer profiles.

    ``distance(a, b)`` must be non-negative; smaller means "prefer as a
    neighbour". ``eligible(a, b)`` filters descriptors a node may keep at all
    (the layered runtime uses this to restrict, e.g., a component's core
    overlay to same-component descriptors).

    The default implementation delegates to a plain callable, so simple
    metrics can be passed as functions.
    """

    def __init__(self, distance: Callable[[Profile, Profile], float]):
        self._distance = distance

    def distance(self, a: Profile, b: Profile) -> float:
        return self._distance(a, b)

    def eligible(self, a: Profile, b: Profile) -> bool:
        return True


def raw_distance(proximity: Proximity) -> Callable[[Profile, Profile], float]:
    """The callable that computes ``proximity.distance``, minus one frame.

    The default :meth:`Proximity.distance` only forwards to the metric it
    was built on, so a ranking loop calls that metric directly; a subclass
    that overrides ``distance`` keeps its method.
    """
    if type(proximity).distance is Proximity.distance:
        return proximity._distance
    return proximity.distance


def rank_by_distance(
    descriptors: Iterable[Descriptor],
    reference: Profile,
    proximity: Proximity,
) -> List[Descriptor]:
    """Sort descriptors by increasing distance to ``reference`` (stable)."""
    return sorted(
        descriptors,
        key=lambda d: (proximity.distance(reference, d.profile), d.node_id),
    )


def select_closest(
    descriptors: Iterable[Descriptor],
    reference: Profile,
    proximity: Proximity,
    k: int,
    exclude_id: int = -1,
    max_age: Optional[int] = None,
) -> List[Descriptor]:
    """The ``k`` eligible descriptors closest to ``reference``.

    Deduplicates by node id (youngest wins), applies the proximity's
    eligibility filter, and never returns ``exclude_id`` (a node must not
    select itself as its own neighbour). With ``max_age`` set, descriptors
    older than it are skipped inside the dedupe loop — exactly selecting
    from ``[d for d in descriptors if d.age <= max_age]`` (the overlay TTL,
    without the copy).

    This is *the* hot loop of every gossip round (see docs/performance.md),
    so it is written for per-descriptor cost: dedupe inlined (no helper
    call per item), the eligibility call skipped when the proximity uses
    the vacuous default, a plain :class:`Proximity` unwrapped to its raw
    metric (:func:`raw_distance`), and the ranking done over
    pre-decorated ``(distance, node_id, ...)`` tuples by :func:`top_k`
    (``heapq.nsmallest`` in O(n log k) once the pool outgrows ``k``, a C
    sort below that). Node ids are unique after deduplication, so the
    (distance, id) prefix is a total order and ties cannot reorder between
    this and the reference ``sorted`` implementation (pinned by
    tests/gossip/test_selection_properties.py).
    """
    best: Dict[int, Descriptor] = {}
    get = best.get
    for descriptor in descriptors:
        age = descriptor.age
        if max_age is not None and age > max_age:
            continue
        node_id = descriptor.node_id
        current = get(node_id)
        if current is None or age < current.age:
            best[node_id] = descriptor
    best.pop(exclude_id, None)

    eligible = proximity.eligible
    if getattr(eligible, "__func__", None) is Proximity.eligible:
        eligible = None  # the base implementation is vacuously true
    distance_fn = raw_distance(proximity)
    decorated = [
        (distance_fn(reference, descriptor.profile), node_id, descriptor)
        for node_id, descriptor in best.items()
        if eligible is None or eligible(reference, descriptor.profile)
    ]
    return [item[2] for item in top_k(decorated, k)]
