"""Action primitives: view invariants under remediation.

Drives :func:`purge_dead` / :func:`seed_view` over arbitrary view states
and shows every remediation primitive preserves the :class:`PartialView`
invariants (capacity, uniqueness, tombstone semantics).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.gossip.descriptors import Descriptor  # noqa: E402
from repro.gossip.views import PartialView  # noqa: E402
from repro.heal.actions import purge_dead, seed_view  # noqa: E402

node_ids = st.integers(min_value=0, max_value=15)
ages = st.integers(min_value=0, max_value=8)
descriptors = st.builds(Descriptor, node_id=node_ids, age=ages)
populations = st.lists(descriptors, max_size=12)
id_lists = st.lists(node_ids, max_size=8)


def build_view(contents, capacity=8) -> PartialView:
    view = PartialView(capacity)
    view.merge(contents)
    return view


def assert_invariants(view: PartialView) -> None:
    entries = view.descriptors()
    assert len(entries) <= view.capacity
    ids = [d.node_id for d in entries]
    assert len(ids) == len(set(ids))  # one entry per id
    assert sorted(ids) == sorted(view.ids())  # index consistency


@given(populations, id_lists)
def test_purge_dead_preserves_invariants_and_removes(contents, dead):
    view = build_view(contents)
    purged = purge_dead(view, dead)
    assert_invariants(view)
    assert purged >= 0
    for dead_id in dead:
        assert dead_id not in view


@given(populations, id_lists)
def test_purge_dead_is_idempotent(contents, dead):
    view = build_view(contents)
    purge_dead(view, dead)
    assert purge_dead(view, dead) == 0  # nothing left to purge


@given(populations, id_lists, ages)
def test_purge_dead_tombstones_block_stale_resurrection(contents, dead, age):
    view = build_view(contents)
    purge_dead(view, dead)
    # A stale (aged) third-party copy must not resurrect a purged entry.
    view.merge([Descriptor(d, age=age + 1) for d in dead])
    for dead_id in dead:
        assert dead_id not in view


@given(populations, id_lists)
def test_seed_view_preserves_invariants_and_bounds(contents, contacts):
    view = build_view(contents)
    before = set(view.ids())
    seeded = seed_view(view, contacts)
    assert_invariants(view)
    assert 0 <= seeded <= len(contacts)
    # Seeding introduces only the requested contacts (eviction may drop
    # old entries, never invent new ones).
    assert set(view.ids()) <= before | set(contacts)


@given(populations, id_lists)
def test_seed_view_lifts_tombstones(contents, contacts):
    view = build_view(contents)
    purge_dead(view, contacts)
    seed_view(view, contacts)
    # Age-0 contact seeding is first-hand evidence of life: unless evicted
    # by capacity pressure from later contacts, the id is back.
    if len(set(contacts)) <= view.capacity:
        for contact in contacts:
            assert contact in view
