"""Property tests pinning the heapq rewrite of descriptor selection.

``select_closest`` used to rank with ``sorted(...)[:k]``; it now uses
``heapq.nsmallest`` over the same ``(distance, node_id)`` key. These tests
assert exact equivalence — same descriptors, same order, including ties —
against a reference implementation kept in its original ``sorted`` form.
The TTL skip inside the dedupe (``max_age``) and the plain-loop healer of
``select_view`` are pinned the same way, tags included.
"""

from __future__ import annotations

import heapq
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.gossip.descriptors import Descriptor  # noqa: E402
from repro.gossip.peer_sampling import select_view  # noqa: E402
from repro.gossip.selection import (  # noqa: E402
    Proximity,
    rank_by_distance,
    select_closest,
)
from repro.sim.config import GossipParams  # noqa: E402
from tests.gossip.helpers import FilteredProximity, dedupe_youngest  # noqa: E402

node_ids = st.integers(min_value=0, max_value=20)
ages = st.integers(min_value=0, max_value=6)
profiles = st.integers(min_value=0, max_value=10)
descriptors = st.builds(Descriptor, node_id=node_ids, age=ages, profile=profiles)
tags = st.none() | st.integers(min_value=0, max_value=3)
tagged = st.builds(
    Descriptor, node_id=node_ids, age=ages, profile=profiles, provenance=tags
)
#: ``(index, tag)``: append a copy of ``pool[index]`` under another tag — one
#: id twice at one age, where only the first copy may survive the dedupe.
twins = st.lists(st.tuples(st.integers(min_value=0, max_value=29), tags), max_size=6)


def with_twins(pool, copies):
    return pool + [pool[i].tagged(tag) for i, tag in copies if i < len(pool)]


def fields(descriptors):
    """All four fields, tag included (descriptor equality ignores the tag)."""
    return [tuple(d) for d in descriptors]

#: Coarse distances on purpose: // 3 buckets many profiles onto the same
#: distance, so tie-handling between sorted and nsmallest is exercised hard.
TIE_HEAVY = Proximity(lambda a, b: abs(a - b) // 3)
EXACT = Proximity(lambda a, b: abs(a - b))
FILTERED = FilteredProximity(
    lambda a, b: abs(a - b), lambda a, b: (a + b) % 2 == 0
)
PROXIMITIES = (TIE_HEAVY, EXACT, FILTERED)


def reference_select(descriptors, reference, proximity, k, exclude_id=-1):
    """The pre-optimization implementation, verbatim: full sort + slice."""
    pool = [
        descriptor
        for descriptor in dedupe_youngest(descriptors)
        if descriptor.node_id != exclude_id
        and proximity.eligible(reference, descriptor.profile)
    ]
    ranked = sorted(
        pool,
        key=lambda d: (proximity.distance(reference, d.profile), d.node_id),
    )
    return ranked[:k]


@given(
    pool=st.lists(descriptors, max_size=30),
    reference=profiles,
    k=st.integers(min_value=0, max_value=12),
    exclude=st.integers(min_value=-1, max_value=20),
    which=st.integers(min_value=0, max_value=len(PROXIMITIES) - 1),
)
@settings(max_examples=300, deadline=None)
def test_select_closest_matches_sorted_reference(pool, reference, k, exclude, which):
    proximity = PROXIMITIES[which]
    expected = reference_select(pool, reference, proximity, k, exclude_id=exclude)
    actual = select_closest(pool, reference, proximity, k, exclude_id=exclude)
    assert actual == expected
    # Order identity, not just set identity: ties must break the same way.
    assert [d.node_id for d in actual] == [d.node_id for d in expected]


@given(
    pool=st.lists(descriptors, max_size=30),
    reference=profiles,
    k=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=200, deadline=None)
def test_select_closest_is_a_prefix_of_the_full_ranking(pool, reference, k):
    deduped = dedupe_youngest(pool)
    full = rank_by_distance(deduped, reference, TIE_HEAVY)
    # rank_by_distance is a stable sort on the same key; with unique ids the
    # key is a total order, so the nsmallest selection must be its prefix.
    assert select_closest(pool, reference, TIE_HEAVY, k) == full[:k]


@given(pool=st.lists(descriptors, max_size=30))
@settings(max_examples=100, deadline=None)
def test_dedupe_keeps_exactly_one_youngest_copy_per_id(pool):
    deduped = dedupe_youngest(pool)
    ids = [d.node_id for d in deduped]
    assert len(ids) == len(set(ids))
    for descriptor in deduped:
        same = [d.age for d in pool if d.node_id == descriptor.node_id]
        assert descriptor.age == min(same)


@given(
    pool=st.lists(tagged, max_size=30),
    copies=twins,
    reference=profiles,
    k=st.integers(min_value=0, max_value=12),
    exclude=st.integers(min_value=-1, max_value=20),
    which=st.integers(min_value=0, max_value=len(PROXIMITIES) - 1),
    max_age=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=300, deadline=None)
def test_max_age_skip_matches_filtered_sorted_reference(
    pool, copies, reference, k, exclude, which, max_age
):
    """``select_closest(pool, max_age=t)`` is the sorted reference over the
    entries no older than ``t``, down to which tagged copy survives."""
    pool = with_twins(pool, copies)
    proximity = PROXIMITIES[which]
    expected = reference_select(
        [d for d in pool if d.age <= max_age], reference, proximity, k, exclude_id=exclude
    )
    actual = select_closest(
        pool, reference, proximity, k, exclude_id=exclude, max_age=max_age
    )
    assert fields(actual) == fields(expected)


def reference_select_view(node_id, pool, sent, received, params, rng):
    """``select_view`` as it was: the healer wave is ``heapq.nsmallest``."""
    for descriptor in received:
        if descriptor.node_id == node_id:
            continue
        current = pool.get(descriptor.node_id)
        if current is None or descriptor.age < current.age:
            pool[descriptor.node_id] = descriptor

    def excess():
        return len(pool) - params.view_size

    if excess() > 0 and params.healer > 0:
        doomed = heapq.nsmallest(
            min(params.healer, excess()),
            pool.values(),
            key=lambda d: (-d.age, d.node_id),
        )
        for descriptor in doomed:
            del pool[descriptor.node_id]
    if excess() > 0 and params.swapper > 0:
        swaps = min(params.swapper, excess())
        for descriptor in sent:
            if swaps <= 0:
                break
            if descriptor.node_id == node_id:
                continue
            if pool.pop(descriptor.node_id, None) is not None:
                swaps -= 1
    while excess() > 0:
        victim = rng.choice(list(pool.keys()))
        del pool[victim]
    return pool


@given(
    view=st.lists(tagged, max_size=14),
    received=st.lists(tagged, max_size=10),
    copies=twins,
    sent=st.lists(tagged, max_size=6),
    view_size=st.integers(min_value=4, max_value=8),
    healer=st.integers(min_value=0, max_value=2),
    swapper=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=300, deadline=None)
def test_select_view_healer_matches_nsmallest(
    view, received, copies, sent, view_size, healer, swapper, seed
):
    """The plain-loop healer drops exactly ``heapq.nsmallest``'s H oldest
    entries (ties to the lowest id), for H = 1 and beyond. Same pool, same
    order, same tags, same RNG draws."""
    params = GossipParams(
        view_size=view_size, gossip_size=1, healer=healer, swapper=swapper
    )
    received = with_twins(received, copies)
    pool = {d.node_id: d for d in view}
    rngs = random.Random(seed), random.Random(seed)
    actual = select_view(0, dict(pool), sent, received, params, rngs[0])
    expected = reference_select_view(0, dict(pool), sent, received, params, rngs[1])
    assert [(key, tuple(d)) for key, d in actual.items()] == [
        (key, tuple(d)) for key, d in expected.items()
    ]
    assert rngs[0].random() == rngs[1].random()
