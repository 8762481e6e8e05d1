"""Differential twins: :class:`ColumnarView` vs :class:`PartialView`.

The columnar store's contract is *observable identity* with the boxed view —
including iteration order, because order decides RNG draws (``random``,
``sample``), overflow-eviction tie-breaks, and replace
semantics. Extending the lazy-vs-eager twin pattern of
tests/gossip/test_views_properties.py: one view of each representation is
driven through the same random operation sequence and every observable is
compared exactly, order included.
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.gossip.descriptors import Descriptor  # noqa: E402
from repro.gossip.selection import Proximity  # noqa: E402
from repro.gossip.views import PartialView  # noqa: E402
from repro.perf.cache import DistanceCache  # noqa: E402
from repro.scale.columnar import ColumnarView  # noqa: E402

# Small id/age spaces so sequences collide (same id at several ages); the
# profile rides along so closest/closest_to rank on real payloads.
node_ids = st.integers(min_value=0, max_value=15)
ages = st.integers(min_value=0, max_value=8)
descriptors = st.builds(
    Descriptor, node_id=node_ids, age=ages, profile=st.integers(0, 15)
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

# One step of a view's life.
operations = st.one_of(
    st.tuples(st.just("insert"), descriptors),
    st.tuples(st.just("remove"), node_ids),
    st.tuples(st.just("purge"), node_ids),
    st.tuples(st.just("age"), st.just(None)),
    st.tuples(st.just("merge"), st.lists(descriptors, max_size=6)),
    st.tuples(st.just("replace"), st.lists(descriptors, max_size=6)),
    st.tuples(st.just("discard_old"), st.integers(min_value=0, max_value=8)),
    st.tuples(st.just("truncate_closest"), st.integers(min_value=0, max_value=6)),
)


def apply(view: PartialView, op: str, payload) -> object:
    """Apply one op; return whatever the op observed (compared by the twin)."""
    if op == "insert":
        return view.insert(payload)
    if op == "remove":
        view.remove(payload)
    elif op == "purge":
        view.purge(payload)
    elif op == "age":
        view.increase_age()
    elif op == "merge":
        return view.merge(payload)
    elif op == "replace":
        view.replace(payload)
    elif op == "discard_old":
        view.discard_where(lambda d: d.age > payload)
    elif op == "truncate_closest":
        view.truncate_closest(payload, lambda d: abs((d.profile or 0) - 5))
    return None


def snapshot(view: PartialView):
    """Every order-sensitive observable, in observation order."""
    return (
        list(view.profiles()),
        [(d.node_id, d.age, d.profile) for d in view.descriptors()],
        view.ids(),
        sorted(view.id_set()),
        len(view),
        view.is_full(),
        [(d.node_id, d.age) for d in view],
        view.oldest(),
        view.youngest(),
        [view.is_purged(node_id) for node_id in range(16)],
    )


def make_twins(capacity: int):
    return (
        PartialView(capacity, tombstone_ttl=4),
        ColumnarView(capacity, tombstone_ttl=4),
    )


@given(
    capacity=st.integers(min_value=1, max_value=6),
    ops=st.lists(operations, max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_columnar_matches_object_view_step_for_step(capacity, ops):
    obj, col = make_twins(capacity)
    for op, payload in ops:
        assert apply(obj, op, payload) == apply(col, op, payload), op
        assert snapshot(obj) == snapshot(col), op


@given(
    capacity=st.integers(min_value=1, max_value=6),
    ops=st.lists(operations, max_size=30),
    seed=seeds,
    k=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_rng_draws_are_identical(capacity, ops, seed, k):
    """random/sample consume the twins' RNGs identically — same picks AND
    the same number of underlying draws (checked by continuing to draw)."""
    obj, col = make_twins(capacity)
    for op, payload in ops:
        apply(obj, op, payload)
        apply(col, op, payload)
    rng_obj, rng_col = random.Random(seed), random.Random(seed)
    assert obj.random(rng_obj) == col.random(rng_col)
    assert obj.sample(rng_obj, k) == col.sample(rng_col, k)
    assert rng_obj.random() == rng_col.random(), "rng state diverged"


@given(
    capacity=st.integers(min_value=1, max_value=8),
    ops=st.lists(operations, max_size=30),
    k=st.integers(min_value=0, max_value=10),
    reference=st.integers(min_value=0, max_value=15),
)
@settings(max_examples=200, deadline=None)
def test_ranking_is_identical(capacity, ops, k, reference):
    """closest and the batch closest_to agree across representations (and
    with each other) for both a plain metric and a memoizing cache."""
    obj, col = make_twins(capacity)
    for op, payload in ops:
        apply(obj, op, payload)
        apply(col, op, payload)
    key = lambda d: abs((d.profile or 0) - reference)  # noqa: E731 — ties on purpose
    assert obj.closest(k, key) == col.closest(k, key)
    proximity = Proximity(lambda a, b: abs((a or 0) - (b or 0)))
    cache = DistanceCache(proximity, reference)
    expected = obj.closest(k, lambda d: cache.to(d.profile))
    assert obj.closest_to(k, cache) == expected
    assert col.closest_to(k, cache) == expected


@given(ops=st.lists(operations, max_size=25))
@settings(max_examples=100, deadline=None)
def test_columnar_never_allocates_past_capacity(ops):
    """The slot columns are the whole store: free + occupied always
    partitions the preallocated capacity exactly."""
    col = ColumnarView(4, tombstone_ttl=4)
    for op, payload in ops:
        apply(col, op, payload)
        occupied = sorted(col._slot_of.values())
        assert len(occupied) + len(col._free) == 4
        assert sorted(occupied + col._free) == [0, 1, 2, 3]
