"""Tests for bounded partial views, including property-based invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.gossip.descriptors import Descriptor
from repro.gossip.selection import Proximity
from repro.gossip.views import PartialView


def make_view(capacity, entries=()):
    return PartialView(capacity, [Descriptor(nid, age) for nid, age in entries])


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            PartialView(0)

    def test_insert_and_contains(self):
        view = PartialView(3)
        assert view.insert(Descriptor(1, 0))
        assert 1 in view
        assert 2 not in view
        assert len(view) == 1

    def test_get(self):
        view = make_view(3, [(1, 5)])
        assert view.get(1).age == 5
        assert view.get(9) is None

    def test_duplicate_keeps_youngest(self):
        view = make_view(3, [(1, 5)])
        assert view.insert(Descriptor(1, 2))
        assert view.get(1).age == 2
        assert not view.insert(Descriptor(1, 9))
        assert view.get(1).age == 2

    def test_overflow_evicts_oldest(self):
        view = make_view(2, [(1, 5), (2, 1)])
        assert view.insert(Descriptor(3, 0))
        assert 1 not in view
        assert {2, 3} == set(view.ids())

    def test_overflow_rejects_older_than_all(self):
        view = make_view(2, [(1, 1), (2, 2)])
        assert not view.insert(Descriptor(3, 9))
        assert 3 not in view

    def test_remove(self):
        view = make_view(3, [(1, 0)])
        assert view.remove(1)
        assert not view.remove(1)

    def test_merge_counts_changes(self):
        view = make_view(4, [(1, 3)])
        changed = view.merge([Descriptor(1, 1), Descriptor(2, 0), Descriptor(1, 9)])
        assert changed == 2

    def test_clear_and_replace(self):
        view = make_view(4, [(1, 0), (2, 0)])
        view.clear()
        assert len(view) == 0
        view.replace([Descriptor(5, 0), Descriptor(6, 0)])
        assert set(view.ids()) == {5, 6}

    def test_discard_where(self):
        view = make_view(4, [(1, 0), (2, 5), (3, 9)])
        removed = view.discard_where(lambda d: d.age > 3)
        assert removed == 2
        assert view.ids() == [1]

    def test_increase_age(self):
        view = make_view(3, [(1, 0), (2, 4)])
        view.increase_age()
        assert view.get(1).age == 1
        assert view.get(2).age == 5

    def test_profiles_reads_ids_and_profiles_without_settling(self):
        view = PartialView(3, [Descriptor(1, 0, "a"), Descriptor(2, 4, "b")])
        view.increase_age()
        assert list(view.profiles()) == [(1, "a"), (2, "b")]
        assert view._age_debt == 1  # age-free: the debt is still owed
        assert view.get(2).age == 5


class TestSelection:
    def test_oldest_and_youngest(self):
        view = make_view(4, [(1, 3), (2, 7), (3, 0)])
        assert view.oldest().node_id == 2
        assert view.youngest().node_id == 3

    def test_oldest_tie_breaks_lowest_id(self):
        view = make_view(4, [(5, 3), (2, 3)])
        assert view.oldest().node_id == 2

    def test_empty_selections(self):
        view = PartialView(2)
        rng = random.Random(0)
        assert view.oldest() is None
        assert view.youngest() is None
        assert view.random(rng) is None
        assert view.sample(rng, 3) == []

    def test_random_member(self):
        view = make_view(4, [(1, 0), (2, 0)])
        rng = random.Random(1)
        assert view.random(rng).node_id in (1, 2)

    def test_sample_without_replacement(self):
        view = make_view(8, [(i, 0) for i in range(8)])
        sample = view.sample(random.Random(2), 5)
        assert len(sample) == 5
        assert len({d.node_id for d in sample}) == 5

    def test_sample_more_than_size_returns_all(self):
        view = make_view(4, [(1, 0), (2, 0)])
        assert len(view.sample(random.Random(0), 10)) == 2

    def test_closest(self):
        view = PartialView(8, [Descriptor(i, 0, profile=i) for i in range(8)])
        closest = view.closest_to(3, Proximity(lambda a, b: abs(a - b)), 5)
        assert [d.node_id for d in closest] == [5, 4, 6]


class TestTombstones:
    def test_purge_removes_and_blocks_stale_reinsertion(self):
        view = make_view(4, [(1, 3), (2, 0)])
        assert view.purge(1)
        assert 1 not in view
        assert view.is_purged(1)
        assert not view.insert(Descriptor(1, 2))
        assert 1 not in view

    def test_purge_of_absent_node_still_tombstones(self):
        view = make_view(4)
        assert not view.purge(9)
        assert view.is_purged(9)
        assert not view.insert(Descriptor(9, 1))

    def test_age_zero_announcement_lifts_tombstone(self):
        view = make_view(4, [(1, 3)])
        view.purge(1)
        assert view.insert(Descriptor(1, 0))
        assert 1 in view
        assert not view.is_purged(1)
        # Once lifted, ordinary descriptors flow again.
        view.remove(1)
        assert view.insert(Descriptor(1, 5))

    def test_tombstone_expires_after_ttl_aging_steps(self):
        view = PartialView(4, tombstone_ttl=3)
        view.purge(1)
        view.increase_age()
        view.increase_age()
        assert view.is_purged(1)
        view.increase_age()
        assert not view.is_purged(1)
        assert view.insert(Descriptor(1, 7))

    def test_replace_keeps_tombstones(self):
        view = make_view(4, [(1, 0), (2, 0)])
        view.purge(3)
        view.replace([Descriptor(5, 0), Descriptor(3, 4)])
        assert 3 not in view  # stale id filtered by the surviving tombstone
        assert set(view.ids()) == {5}

    def test_clear_drops_tombstones(self):
        view = make_view(4, [(1, 0)])
        view.purge(2)
        view.clear()
        assert not view.is_purged(2)
        assert view.insert(Descriptor(2, 9))

    def test_ttl_validation(self):
        with pytest.raises(ConfigurationError):
            PartialView(4, tombstone_ttl=0)


# -- property-based invariants --------------------------------------------------

operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "remove", "age"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=30),
    ),
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=8), ops=operations)
def test_view_invariants_hold_under_any_operation_sequence(capacity, ops):
    """Capacity bound, id uniqueness, youngest-wins — under arbitrary ops."""
    view = PartialView(capacity)
    youngest_seen = {}
    for op, node_id, age in ops:
        if op == "insert":
            view.insert(Descriptor(node_id, age))
        elif op == "remove":
            view.remove(node_id)
        elif op == "age":
            view.increase_age()
        # Invariant 1: never exceeds capacity.
        assert len(view) <= capacity
        # Invariant 2: one entry per node id.
        ids = view.ids()
        assert len(ids) == len(set(ids))


@settings(max_examples=80, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 20)), max_size=20
    )
)
def test_insert_keeps_youngest_per_node(entries):
    view = PartialView(50)  # big enough that capacity never interferes
    best = {}
    for node_id, age in entries:
        view.insert(Descriptor(node_id, age))
        best[node_id] = min(best.get(node_id, age), age)
    for node_id, age in best.items():
        assert view.get(node_id).age == age


purge_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "fresh_insert", "purge", "age", "remove"]),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=12),
    ),
    max_size=80,
)


@settings(max_examples=120, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=8), ops=purge_ops)
def test_purged_descriptor_never_resurrected_without_fresh_announcement(
    capacity, ops
):
    """The pause/resume zombie property: once a node is purged (observed
    dead), no stale descriptor may re-enter the view until either the node
    itself announces with an age-0 descriptor (a resume) or the tombstone's
    TTL expires — whichever an adversarial gossip stream tries first."""
    ttl = 5
    view = PartialView(capacity, tombstone_ttl=ttl)
    tombstoned_for = {}  # node_id -> remaining aging steps
    for op, node_id, age in ops:
        if op == "insert":
            view.insert(Descriptor(node_id, age))  # stale copy (age >= 1)
        elif op == "fresh_insert":
            view.insert(Descriptor(node_id, 0))  # the owner announcing itself
            tombstoned_for.pop(node_id, None)
        elif op == "purge":
            view.purge(node_id)
            tombstoned_for[node_id] = ttl
        elif op == "age":
            view.increase_age()
            tombstoned_for = {
                nid: left - 1 for nid, left in tombstoned_for.items() if left > 1
            }
        elif op == "remove":
            view.remove(node_id)
        for nid, _ in tombstoned_for.items():
            assert nid not in view, (
                f"purged node {nid} resurrected by a stale descriptor"
            )


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 6),
    entries=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 9)), max_size=30),
)
def test_overflow_always_keeps_youngest_cohort(capacity, entries):
    """After arbitrary inserts, no evicted node can be younger than every
    kept entry (the eviction policy is oldest-first)."""
    view = PartialView(capacity)
    for node_id, age in entries:
        view.insert(Descriptor(node_id, age))
    if len(view) == capacity and entries:
        max_kept = max(d.age for d in view)
        # Any fresher-than-all candidate must be accepted.
        assert view.insert(Descriptor(999, max(0, max_kept - 1))) or max_kept == 0
