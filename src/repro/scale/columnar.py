"""Columnar descriptor storage — the array-backed :class:`PartialView` twin.

A :class:`~repro.gossip.views.PartialView` keeps one boxed
:class:`~repro.gossip.descriptors.Descriptor` per entry. At bench scale
(10k nodes × 2 layers × view size ~20) that is hundreds of thousands of
small Python objects churned every round. :class:`ColumnarView` stores the
same state in fixed-width columns — node ids and ages in preallocated
stdlib ``array('q')`` slots, profiles and flow tags (``None`` or the round
a descriptor was minted in, stored opaquely) in parallel lists — and
materializes :class:`Descriptor` objects only at the API
boundary. No numpy: the point is the layout (one allocation per column per
view, ids/ages readable without attribute dispatch), not SIMD.

**Equivalence contract.** ColumnarView is *observably identical* to
PartialView, including iteration order: the slot index
(``node_id → slot``) is an insertion-ordered dict that mirrors, operation
for operation, the key order of PartialView's entry dict — so every
order-sensitive consumer (``random``/``sample`` RNG draws, overflow
eviction tie-breaks, ``replace`` semantics, lazy age-debt settlement)
makes byte-identical decisions on either representation. The contract is
pinned by the differential twin suite in tests/perf/test_columnar_twins.py
and, end to end, by the 1k digest triple in tests/scale/test_digests.py.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.gossip.descriptors import Descriptor
from repro.gossip.selection import batch_distances
from repro.gossip.views import PartialView


class NodeInterner:
    """A bijection between arbitrary hashable node ids and dense indices.

    The sharded engine addresses nodes by dense rank (shard assignment,
    wire batches, adjacency collection); simulations address them by their
    network id. Interning keeps the mapping explicit — and O(1) both ways —
    instead of assuming ids happen to be ``0..n-1``.
    """

    __slots__ = ("_index_of", "_ids")

    def __init__(self, ids: Iterable[Hashable] = ()):
        self._index_of: Dict[Hashable, int] = {}
        self._ids: List[Hashable] = []
        for node_id in ids:
            self.intern(node_id)

    def intern(self, node_id: Hashable) -> int:
        """The dense index of ``node_id``, allocating one if unseen."""
        index = self._index_of.get(node_id)
        if index is None:
            index = len(self._ids)
            self._index_of[node_id] = index
            self._ids.append(node_id)
        return index

    def index_of(self, node_id: Hashable) -> int:
        """The dense index of a known id (KeyError if never interned)."""
        return self._index_of[node_id]

    def resolve(self, index: int) -> Hashable:
        """The node id at dense ``index``."""
        return self._ids[index]

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node_id: Hashable) -> bool:
        return node_id in self._index_of

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeInterner(size={len(self._ids)})"


class ColumnarView(PartialView):
    """Array-backed twin of :class:`PartialView` (see module docstring).

    Storage: ``capacity`` preallocated slots. ``_slot_of`` maps node id to
    slot and carries the canonical entry order (it mirrors PartialView's
    dict order exactly); ``_free`` is a LIFO of unused slots, so a view
    never allocates after construction.
    """

    __slots__ = ("_ids", "_ages", "_profiles", "_prov", "_slot_of", "_free")

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
        self._ids = array("q", bytes(8 * capacity))
        self._ages = array("q", bytes(8 * capacity))
        self._profiles: List[object] = [None] * capacity
        self._prov: List[object] = [None] * capacity
        self._slot_of: Dict[int, int] = {}
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._tombstones: Dict[int, int] = {}
        self._age_debt = 0
        for descriptor in entries:
            self.insert(descriptor)

    # -- internals ------------------------------------------------------------

    def _materialize(self, slot: int) -> Descriptor:
        fields = (self._ids[slot], self._ages[slot], self._profiles[slot], self._prov[slot])
        return tuple.__new__(Descriptor, fields)  # the columns hold ints: no coercion

    def _write(self, slot: int, descriptor: Descriptor) -> None:
        self._ids[slot], self._ages[slot], self._profiles[slot], self._prov[slot] = descriptor

    def _release(self, slot: int) -> None:
        self._profiles[slot] = None  # drop the reference, not just the slot
        self._prov[slot] = None
        self._free.append(slot)

    def _settle(self) -> None:
        debt = self._age_debt
        if not debt:
            return
        self._age_debt = 0
        ages = self._ages
        for slot in self._slot_of.values():
            ages[slot] += debt
        if self._tombstones:
            self._tombstones = {
                node_id: remaining - debt
                for node_id, remaining in self._tombstones.items()
                if remaining - debt >= 1
            }

    # -- basic container protocol ---------------------------------------------

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._slot_of

    def __iter__(self) -> Iterator[Descriptor]:
        self._settle()
        for slot in self._slot_of.values():
            yield self._materialize(slot)

    def get(self, node_id: int) -> Optional[Descriptor]:
        self._settle()
        slot = self._slot_of.get(node_id)
        return None if slot is None else self._materialize(slot)

    def ids(self) -> List[int]:
        return list(self._slot_of.keys())

    def id_set(self):
        return self._slot_of.keys()

    def descriptors(self) -> List[Descriptor]:
        self._settle()
        return [self._materialize(slot) for slot in self._slot_of.values()]

    def profiles(self):
        ids, profiles = self._ids, self._profiles
        return ((ids[slot], profiles[slot]) for slot in self._slot_of.values())

    def is_full(self) -> bool:
        return len(self._slot_of) >= self.capacity

    # -- mutation ---------------------------------------------------------------

    def insert(self, descriptor: Descriptor) -> bool:
        self._settle()
        node_id = descriptor.node_id
        remaining = self._tombstones.get(node_id)
        if remaining is not None:
            if descriptor.age > 0:
                return False
            del self._tombstones[node_id]
        slot_of = self._slot_of
        slot = slot_of.get(node_id)
        if slot is not None:
            if descriptor.age < self._ages[slot]:
                self._write(slot, descriptor)
                return True
            return False
        if len(slot_of) < self.capacity:
            slot = self._free.pop()
            self._write(slot, descriptor)
            slot_of[node_id] = slot
            return True
        # Overflow: evict the oldest entry — strictly-greater scan keeps the
        # *first* maximal in entry order, exactly like PartialView's max().
        ages = self._ages
        oldest_id = -1
        oldest_slot = -1
        oldest_age = None
        for nid, nslot in slot_of.items():
            age = ages[nslot]
            if oldest_age is None or age > oldest_age:
                oldest_id, oldest_slot, oldest_age = nid, nslot, age
        if descriptor.age >= oldest_age:
            return False
        del slot_of[oldest_id]
        self._write(oldest_slot, descriptor)
        slot_of[node_id] = oldest_slot
        return True

    def remove(self, node_id: int) -> bool:
        slot = self._slot_of.pop(node_id, None)
        if slot is None:
            return False
        self._release(slot)
        return True

    def purge(self, node_id: int) -> bool:
        self._settle()  # a fresh tombstone must not absorb pre-purge debt
        existed = self.remove(node_id)
        self._tombstones[node_id] = self.tombstone_ttl
        return existed

    def is_purged(self, node_id: int) -> bool:
        self._settle()
        return node_id in self._tombstones

    def discard_where(self, predicate: Callable[[Descriptor], bool]) -> int:
        self._settle()
        doomed = [
            node_id
            for node_id, slot in self._slot_of.items()
            if predicate(self._materialize(slot))
        ]
        for node_id in doomed:
            self._release(self._slot_of.pop(node_id))
        return len(doomed)

    def increase_age(self) -> None:
        self._age_debt += 1

    def clear(self) -> None:
        for slot in self._slot_of.values():
            self._release(slot)
        self._slot_of.clear()
        self._tombstones.clear()
        self._age_debt = 0

    def _clear_entries(self) -> None:
        """Drop entries only (tombstones and settled debt survive)."""
        for slot in self._slot_of.values():
            self._release(slot)
        self._slot_of.clear()

    def replace(self, descriptors: Iterable[Descriptor]) -> None:
        self._settle()  # tombstones must observe pre-replace aging
        self._clear_entries()
        slot_of = self._slot_of
        tombstones = self._tombstones
        capacity = self.capacity
        ages = self._ages
        for descriptor in descriptors:
            node_id = descriptor.node_id
            if tombstones:
                remaining = tombstones.get(node_id)
                if remaining is not None:
                    if descriptor.age > 0:
                        continue
                    del tombstones[node_id]
            slot = slot_of.get(node_id)
            if slot is None:
                if len(slot_of) < capacity:
                    new_slot = self._free.pop()
                    self._write(new_slot, descriptor)
                    slot_of[node_id] = new_slot
                else:
                    self.insert(descriptor)  # overflow: full eviction policy
            elif descriptor.age < ages[slot]:
                self._write(slot, descriptor)

    # -- selection ---------------------------------------------------------------

    def oldest(self) -> Optional[Descriptor]:
        self._settle()
        ages = self._ages
        best_slot = -1
        best_key = None
        for node_id, slot in self._slot_of.items():
            key = (ages[slot], -node_id)
            if best_key is None or key > best_key:
                best_slot, best_key = slot, key
        return None if best_slot < 0 else self._materialize(best_slot)

    def youngest(self) -> Optional[Descriptor]:
        self._settle()
        ages = self._ages
        best_slot = -1
        best_key = None
        for node_id, slot in self._slot_of.items():
            key = (ages[slot], node_id)
            if best_key is None or key < best_key:
                best_slot, best_key = slot, key
        return None if best_slot < 0 else self._materialize(best_slot)

    def random(self, rng) -> Optional[Descriptor]:
        self._settle()
        if not self._slot_of:
            return None
        return self.get(rng.choice(list(self._slot_of.keys())))

    def sample(self, rng, k: int) -> List[Descriptor]:
        self._settle()
        values = self.descriptors()
        if k >= len(values):
            return values
        return rng.sample(values, k)

    def closest(self, k: int, key: Callable[[Descriptor], float]) -> List[Descriptor]:
        self._settle()
        entries = self.descriptors()
        if len(entries) <= 4 * k:
            return sorted(entries, key=lambda d: (key(d), d.node_id))[:k]
        return heapq.nsmallest(k, entries, key=lambda d: (key(d), d.node_id))

    def closest_to(self, k: int, distances) -> List[Descriptor]:
        """Batch ranking: the ``k`` entries nearest under ``distances.to``.

        The columnar win: distances are evaluated over the raw profile
        column — one ``(distance, node_id)`` tuple per entry, no Descriptor
        materialized for anything that does not make the cut. Result is
        exactly :meth:`closest` with ``key=lambda d: distances.to(d.profile)``
        (pinned by the twin suite).
        """
        self._settle()
        profiles = self._profiles
        items = list(self._slot_of.items())
        reference = getattr(distances, "reference", None)
        if reference is not None:
            evaluated = batch_distances(
                reference, [profiles[slot] for _, slot in items], distances
            )
            decorated = [
                (distance, node_id, slot)
                for distance, (node_id, slot) in zip(evaluated, items)
            ]
        else:
            to = distances.to
            decorated = [(to(profiles[slot]), node_id, slot) for node_id, slot in items]
        if len(decorated) <= 4 * k:
            top = sorted(decorated)[:k]
        else:
            top = heapq.nsmallest(k, decorated)
        return [self._materialize(slot) for _, _, slot in top]

    def truncate_closest(self, k: int, key: Callable[[Descriptor], float]) -> None:
        if len(self._slot_of) <= k:
            return
        keep = self.closest(k, key)
        self._clear_entries()
        slot_of = self._slot_of
        for descriptor in keep:
            slot = self._free.pop()
            self._write(slot, descriptor)
            slot_of[descriptor.node_id] = slot

    def __repr__(self) -> str:
        return f"ColumnarView(capacity={self.capacity}, size={len(self)})"
