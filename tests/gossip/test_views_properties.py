"""Property-based tests for :class:`PartialView` invariants.

The view is the state of every gossip protocol, and this PR made its aging
lazy (an age-debt settled on demand) — so its invariants are pinned under
arbitrary operation sequences:

- at most ``capacity`` entries, at most one entry per node id;
- the youngest copy per node wins;
- tombstoned ids never resurrect from stale (age > 0) descriptors;
- id-index consistency: ``ids``/``in``/``len`` agree with ``descriptors``;
- lazy aging is observably identical to settling after every round.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.gossip.descriptors import Descriptor  # noqa: E402
from repro.gossip.selection import Proximity, rank_by_distance  # noqa: E402
from repro.gossip.views import PartialView  # noqa: E402

# Small id/age spaces so sequences collide (same id seen at several ages).
node_ids = st.integers(min_value=0, max_value=15)
ages = st.integers(min_value=0, max_value=8)
descriptors = st.builds(Descriptor, node_id=node_ids, age=ages)
#: With a profile to rank on and a tag that equality ignores.
tagged = st.builds(
    Descriptor,
    node_id=node_ids,
    age=ages,
    profile=st.integers(min_value=0, max_value=10),
    provenance=st.none() | st.integers(min_value=0, max_value=3),
)

# One step of a view's life. Tagged tuples keep examples shrinkable.
operations = st.one_of(
    st.tuples(st.just("insert"), descriptors),
    st.tuples(st.just("remove"), node_ids),
    st.tuples(st.just("purge"), node_ids),
    st.tuples(st.just("age"), st.just(None)),
    st.tuples(st.just("merge"), st.lists(descriptors, max_size=6)),
    st.tuples(st.just("replace"), st.lists(descriptors, max_size=6)),
    st.tuples(st.just("discard_old"), st.integers(min_value=0, max_value=8)),
)


def apply(view: PartialView, op, payload) -> None:
    if op == "insert":
        view.insert(payload)
    elif op == "remove":
        view.remove(payload)
    elif op == "purge":
        view.purge(payload)
    elif op == "age":
        view.increase_age()
    elif op == "merge":
        view.merge(payload)
    elif op == "replace":
        view.replace(payload)
    elif op == "discard_old":
        view.discard_where(lambda d: d.age > payload)


@given(
    capacity=st.integers(min_value=1, max_value=6),
    ops=st.lists(operations, max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_capacity_and_unique_ids_hold_under_any_sequence(capacity, ops):
    view = PartialView(capacity, tombstone_ttl=4)
    for op, payload in ops:
        apply(view, op, payload)
        entries = view.descriptors()
        assert len(entries) <= capacity
        ids = [d.node_id for d in entries]
        assert len(ids) == len(set(ids)), "duplicate node id in view"


@given(
    capacity=st.integers(min_value=1, max_value=6),
    ops=st.lists(operations, max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_id_index_stays_consistent(capacity, ops):
    view = PartialView(capacity, tombstone_ttl=4)
    for op, payload in ops:
        apply(view, op, payload)
        entries = view.descriptors()
        assert sorted(view.ids()) == sorted(d.node_id for d in entries)
        assert len(view) == len(entries)
        for descriptor in entries:
            assert descriptor.node_id in view
            got = view.get(descriptor.node_id)
            assert got is not None and got.node_id == descriptor.node_id
        for absent in set(range(16)) - set(view.ids()):
            assert absent not in view
            assert view.get(absent) is None


@given(first=ages, second=ages, node_id=node_ids)
def test_youngest_copy_wins(first, second, node_id):
    view = PartialView(4)
    view.insert(Descriptor(node_id, age=first))
    view.insert(Descriptor(node_id, age=second))
    kept = view.get(node_id)
    assert kept is not None and kept.age == min(first, second)


@given(
    node_id=node_ids,
    stale_age=st.integers(min_value=1, max_value=8),
    rounds=st.integers(min_value=0, max_value=3),
)
def test_tombstones_never_resurrect_from_stale_copies(node_id, stale_age, rounds):
    view = PartialView(4, tombstone_ttl=8)
    view.insert(Descriptor(node_id, age=0))
    view.purge(node_id)
    for _ in range(rounds):
        view.increase_age()
    assert not view.insert(Descriptor(node_id, age=stale_age))
    assert node_id not in view
    # Only an age-0 descriptor — the node announcing itself — lifts it.
    assert view.insert(Descriptor(node_id, age=0))
    view.remove(node_id)
    assert view.insert(Descriptor(node_id, age=stale_age))


@given(ttl=st.integers(min_value=1, max_value=6), extra=st.integers(min_value=0, max_value=3))
def test_tombstones_expire_after_ttl_rounds(ttl, extra):
    view = PartialView(4, tombstone_ttl=ttl)
    view.purge(7)
    for _ in range(ttl - 1):
        view.increase_age()
    assert not view.insert(Descriptor(7, age=5))
    for _ in range(1 + extra):
        view.increase_age()
    assert view.insert(Descriptor(7, age=5))


@given(
    capacity=st.integers(min_value=1, max_value=6),
    ops=st.lists(operations, max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_lazy_aging_is_observably_identical_to_eager(capacity, ops):
    """Differential twin: one view settles after every round, one never
    settles until the final observation. Their observable states must match
    exactly (descriptor ages, ids, and tombstones)."""
    lazy = PartialView(capacity, tombstone_ttl=4)
    eager = PartialView(capacity, tombstone_ttl=4)
    for op, payload in ops:
        apply(lazy, op, payload)
        apply(eager, op, payload)
        eager.descriptors()  # force settlement of any pending age debt
    snapshot = sorted((d.node_id, d.age) for d in lazy.descriptors())
    assert snapshot == sorted((d.node_id, d.age) for d in eager.descriptors())
    assert lazy._tombstones == eager._tombstones  # both settled by descriptors()
    assert (lazy.oldest() is None) == (eager.oldest() is None)
    if lazy.oldest() is not None:
        assert lazy.oldest() == eager.oldest()


@given(
    capacity=st.integers(min_value=1, max_value=4),
    ops=st.lists(operations, max_size=20),
    payload=st.lists(descriptors, max_size=10),
)
@settings(max_examples=200, deadline=None)
def test_replace_equals_entry_clear_plus_insert_loop(capacity, ops, payload):
    """The inlined fast paths of replace() must match its contract: drop
    the entries (tombstones survive), then insert each descriptor with the
    full youngest-wins / tombstone / eviction semantics."""
    fast = PartialView(capacity, tombstone_ttl=4)
    slow = PartialView(capacity, tombstone_ttl=4)
    for op, op_payload in ops:
        apply(fast, op, op_payload)
        apply(slow, op, op_payload)
    fast.replace(payload)
    slow.discard_where(lambda d: True)  # empty the entries, keep tombstones
    for descriptor in payload:
        slow.insert(descriptor)
    assert sorted((d.node_id, d.age) for d in fast.descriptors()) == sorted(
        (d.node_id, d.age) for d in slow.descriptors()
    )
    assert fast._tombstones == slow._tombstones  # both settled by descriptors()


@given(
    entries=st.lists(tagged, max_size=12),
    k=st.integers(min_value=0, max_value=12),
    rounds=st.integers(min_value=0, max_value=3),
)
@settings(deadline=None)
def test_closest_equals_sorted_prefix(entries, k, rounds):
    """``closest_to`` (heapq-based) must be exactly the prefix of a plain
    ``sorted`` on ``(distance, node_id)``."""
    view = PartialView(12)
    view.merge(entries)
    for _ in range(rounds):
        view.increase_age()
    proximity = Proximity(lambda a, b: abs(a - b))  # ties on purpose
    expected = sorted(
        view.descriptors(), key=lambda d: (abs(5 - d.profile), d.node_id)
    )[:k]
    assert view.closest_to(k, proximity, 5) == expected


@given(
    entries=st.lists(tagged, max_size=12),
    rounds=st.integers(min_value=0, max_value=3),
)
@settings(deadline=None)
def test_oldest_is_max_age_then_lowest_id(entries, rounds):
    """The plain-loop ``oldest`` is ``max`` on ``(age, -id)``, tag included."""
    view = PartialView(12)
    view.merge(entries)
    for _ in range(rounds):
        view.increase_age()
    if not entries:
        assert view.oldest() is None
        return
    expected = max(view.descriptors(), key=lambda d: (d.age, -d.node_id))
    assert tuple(view.oldest()) == tuple(expected)


@given(
    entries=st.lists(tagged, max_size=12),
    reference=st.integers(min_value=0, max_value=10),
    k=st.integers(min_value=0, max_value=12),
    rounds=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_closest_to_matches_closest_on_the_cached_distance(entries, reference, k, rounds):
    """``closest_to`` ranks exactly as ``rank_by_distance`` over the view's
    settled entries: ties to the lowest id, tags carried through, pending
    age debt applied."""
    view = PartialView(12)
    view.merge(entries)
    for _ in range(rounds):
        view.increase_age()
    proximity = Proximity(lambda a, b: abs(a - b) // 3)  # many ties
    expected = rank_by_distance(view.descriptors(), reference, proximity)[:k]
    assert [tuple(d) for d in view.closest_to(k, proximity, reference)] == [
        tuple(d) for d in expected
    ]
