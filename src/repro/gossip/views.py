"""Bounded partial views over node descriptors.

A partial view holds at most one descriptor per node id (always the youngest
seen) and at most ``capacity`` descriptors in total. It is the state of every
gossip protocol in the framework and the structure the convergence metrics
are evaluated on.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.gossip.descriptors import Descriptor
from repro.gossip.selection import Profile, Proximity, raw_distance, top_k

_new = tuple.__new__


def oldest_of(entries: Dict[int, Descriptor]) -> Optional[Descriptor]:
    """The highest-age descriptor of an id-keyed table (ties: lowest id).

    Exactly ``max(entries.values(), key=lambda d: (d.age, -d.node_id))``,
    as one loop with no call per entry; ``None`` for an empty table.
    """
    if not entries:
        return None
    items = iter(entries.items())
    best_id, best = next(items)
    best_age = best.age
    for node_id, descriptor in items:
        age = descriptor.age
        if age > best_age or (age == best_age and node_id < best_id):
            best_id, best, best_age = node_id, descriptor, age
    return best


class PartialView:
    """A capacity-bounded set of descriptors, keyed by node id.

    Invariants (exercised by the property-based test suite):

    - at most ``capacity`` entries;
    - at most one entry per node id;
    - of two descriptors seen for the same node, the younger one is kept.

    When an insertion overflows the capacity, the *oldest* descriptor is
    evicted by default (the healer-friendly policy); callers can supply a
    different eviction key.

    **Tombstones.** :meth:`purge` removes a descriptor *and* blocks its
    re-insertion: a node confirmed dead must not be resurrected by stale
    copies still circulating in other views (the zombie-descriptor problem
    under pause/resume churn). Only an age-0 descriptor — which, under the
    in-transit aging rule, can only originate from the owning node in the
    current round — clears the tombstone, proving the node is back. Each
    tombstone expires after ``tombstone_ttl`` aging steps so the table stays
    bounded across long churn runs.

    **Lazy aging.** :meth:`increase_age` does not rewrite the descriptor
    table; it increments an *age debt* that is settled (applied in one pass)
    the first time the view is actually read or age-sensitively mutated.
    The id-index — the ``node_id → descriptor`` dict *is* the index — is
    therefore maintained incrementally: id-only operations (``len``,
    ``in``, :meth:`ids`, :meth:`remove`) never trigger a rebuild, and a
    view that is aged but not otherwise touched in a round (a lost
    exchange, an idle UO2 bucket) costs O(1) instead of O(view size).
    Observable state is identical to eager aging; the equivalence is pinned
    by tests/gossip/test_views_properties.py.
    """

    __slots__ = ("capacity", "_entries", "_tombstones", "tombstone_ttl", "_age_debt")

    def __init__(
        self,
        capacity: int,
        entries: Iterable[Descriptor] = (),
        tombstone_ttl: int = 64,
    ):
        if capacity < 1:
            raise ConfigurationError(f"view capacity must be >= 1, got {capacity}")
        if tombstone_ttl < 1:
            raise ConfigurationError(
                f"tombstone_ttl must be >= 1, got {tombstone_ttl}"
            )
        self.capacity = capacity
        self.tombstone_ttl = tombstone_ttl
        self._entries: Dict[int, Descriptor] = {}
        self._tombstones: Dict[int, int] = {}
        self._age_debt = 0
        for descriptor in entries:
            self.insert(descriptor)

    def _settle(self) -> None:
        """Apply any deferred aging so entries carry their true age.

        Called by every operation whose outcome (or escaping descriptors)
        depends on ages. Aging a descriptor by the accumulated debt in one
        pass is exactly equivalent to aging it once per round: ``aged`` is
        pure addition, and tombstones expire after ``remaining`` steps
        whether those steps are applied singly or batched.
        """
        debt = self._age_debt
        if not debt:
            return
        self._age_debt = 0
        entries = self._entries
        for node_id, (_, age, profile, tag) in entries.items():
            entries[node_id] = _new(Descriptor, (node_id, age + debt, profile, tag))
        if self._tombstones:
            self._tombstones = {
                node_id: remaining - debt
                for node_id, remaining in self._tombstones.items()
                if remaining - debt >= 1
            }

    # -- basic container protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def __iter__(self) -> Iterator[Descriptor]:
        self._settle()
        return iter(self._entries.values())

    def get(self, node_id: int) -> Optional[Descriptor]:
        self._settle()
        return self._entries.get(node_id)

    def ids(self) -> List[int]:
        return list(self._entries.keys())

    def id_set(self):
        """The live ``dict_keys`` view of member ids (id-only: no settle).

        Set arithmetic against it (``pool.keys() - view.id_set()``) and
        ``in`` checks run at C speed — the instrumented merge paths use it
        to tally view churn without per-element method dispatch.
        """
        return self._entries.keys()

    def descriptors(self) -> List[Descriptor]:
        self._settle()
        return list(self._entries.values())

    def profiles(self) -> Iterator[Tuple[int, Any]]:
        """``(node_id, profile)`` of every entry, in entry order (age-free:
        no settle, no copy) — for readers that ask *who is what*, not *how
        fresh*."""
        return ((d.node_id, d.profile) for d in self._entries.values())

    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    # -- mutation ---------------------------------------------------------------

    def insert(self, descriptor: Descriptor) -> bool:
        """Insert ``descriptor``, keeping the youngest copy per node.

        Returns ``True`` if the view changed. On overflow the oldest entry is
        evicted; if the incoming descriptor is itself the oldest, it is not
        inserted. Tombstoned ids are rejected unless the descriptor is
        age 0 (a live announcement from the owner itself).
        """
        self._settle()
        remaining = self._tombstones.get(descriptor.node_id)
        if remaining is not None:
            if descriptor.age > 0:
                return False
            del self._tombstones[descriptor.node_id]
        existing = self._entries.get(descriptor.node_id)
        if existing is not None:
            if descriptor.age < existing.age:
                self._entries[descriptor.node_id] = descriptor
                return True
            return False
        if len(self._entries) < self.capacity:
            self._entries[descriptor.node_id] = descriptor
            return True
        oldest_id, oldest = max(self._entries.items(), key=lambda item: item[1].age)
        if descriptor.age >= oldest.age:
            return False
        del self._entries[oldest_id]
        self._entries[descriptor.node_id] = descriptor
        return True

    def merge(self, descriptors: Iterable[Descriptor]) -> int:
        """Insert many descriptors; return how many changed the view."""
        return sum(1 for descriptor in descriptors if self.insert(descriptor))

    def remove(self, node_id: int) -> bool:
        """Drop the entry for ``node_id``; return whether one existed."""
        return self._entries.pop(node_id, None) is not None

    def purge(self, node_id: int) -> bool:
        """Drop ``node_id`` and tombstone it against stale re-insertion.

        The failure-detection removal: use this when the node was observed
        *dead* (not merely unreachable), so third-party copies of its
        descriptor cannot flow back in. A subsequent age-0 descriptor — the
        node announcing itself after a resume — lifts the tombstone.
        """
        self._settle()  # a fresh tombstone must not absorb pre-purge debt
        existed = self._entries.pop(node_id, None) is not None
        self._tombstones[node_id] = self.tombstone_ttl
        return existed

    def is_purged(self, node_id: int) -> bool:
        """Whether ``node_id`` currently carries a tombstone."""
        self._settle()
        return node_id in self._tombstones

    def discard_where(self, predicate: Callable[[Descriptor], bool]) -> int:
        """Remove every descriptor matching ``predicate``; return the count."""
        self._settle()
        doomed = [d.node_id for d in self._entries.values() if predicate(d)]
        for node_id in doomed:
            del self._entries[node_id]
        return len(doomed)

    def increase_age(self) -> None:
        """Age every descriptor by one round (start of a gossip step).

        O(1): the round is added to the view's age debt and applied lazily
        on the next age-sensitive access (see the class docstring).
        """
        self._age_debt += 1

    def clear(self) -> None:
        """Full reset: entries, tombstones, and pending age debt dropped."""
        self._entries.clear()
        self._tombstones.clear()
        self._age_debt = 0

    def replace(self, descriptors: Iterable[Descriptor]) -> None:
        """Atomically replace the contents (used by select-style protocols).

        Semantically an entry-clear followed by :meth:`insert` per
        descriptor (pinned by tests/gossip/test_views_properties.py); the
        common cases — unique ids, no overflow, the output of a select
        step — are inlined because select-style protocols call this every
        exchange and a full ``insert`` per descriptor is measurable there.
        """
        self._settle()  # tombstones must observe pre-replace aging
        entries = self._entries
        entries.clear()
        tombstones = self._tombstones
        capacity = self.capacity
        for descriptor in descriptors:
            node_id = descriptor.node_id
            if tombstones:
                remaining = tombstones.get(node_id)
                if remaining is not None:
                    if descriptor.age > 0:
                        continue
                    del tombstones[node_id]
            existing = entries.get(node_id)
            if existing is None:
                if len(entries) < capacity:
                    entries[node_id] = descriptor
                else:
                    self.insert(descriptor)  # overflow: full eviction policy
            elif descriptor.age < existing.age:
                entries[node_id] = descriptor

    # -- selection ---------------------------------------------------------------

    def oldest(self) -> Optional[Descriptor]:
        """The entry with the highest age (ties broken by lowest node id)."""
        self._settle()
        return oldest_of(self._entries)

    def youngest(self) -> Optional[Descriptor]:
        self._settle()
        if not self._entries:
            return None
        return min(self._entries.values(), key=lambda d: (d.age, d.node_id))

    def random(self, rng: random.Random) -> Optional[Descriptor]:
        self._settle()
        if not self._entries:
            return None
        return self._entries[rng.choice(list(self._entries.keys()))]

    def sample(self, rng: random.Random, k: int) -> List[Descriptor]:
        """Up to ``k`` distinct entries, uniformly at random."""
        self._settle()
        values = list(self._entries.values())
        if k >= len(values):
            return values
        return rng.sample(values, k)

    def closest_to(
        self, k: int, proximity: Proximity, reference: Profile
    ) -> List[Descriptor]:
        """The ``k`` entries nearest ``reference`` under ``proximity``.

        Exactly ``rank_by_distance(self.descriptors(), reference,
        proximity)[:k]``: the ``(distance, node_id)`` order, ranked by
        :func:`~repro.gossip.selection.top_k` with the metric unwrapped as
        :func:`~repro.gossip.selection.select_closest` does.
        """
        self._settle()
        distance = raw_distance(proximity)
        decorated = [
            (distance(reference, descriptor.profile), node_id, descriptor)
            for node_id, descriptor in self._entries.items()
        ]
        return [item[2] for item in top_k(decorated, k)]

    def __repr__(self) -> str:
        return f"PartialView(capacity={self.capacity}, size={len(self)})"

