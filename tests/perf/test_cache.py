"""Unhashable profiles on the ranking hot path.

Vicinity and T-Man rank on the raw proximity: no distance is memoized, so
no profile is ever hashed. List-valued profiles therefore rank like any
other, through both :func:`select_closest` and
:meth:`PartialView.closest_to`, and every ranking calls the metric afresh.
"""

from __future__ import annotations

import pytest

from repro.gossip.descriptors import Descriptor
from repro.gossip.selection import Proximity, select_closest
from repro.gossip.views import PartialView


class CountingProximity(Proximity):
    """Counts underlying distance evaluations."""

    def __init__(self):
        super().__init__(lambda a, b: abs(a[0] - b[0]))
        self.calls = 0

    def distance(self, a, b):
        self.calls += 1
        return super().distance(a, b)


def first_coordinate_distance(a, b):
    return abs(a[0] - b[0])


#: A mixed pool: tuple profiles hash, list profiles do not. The unhashable
#: ones sit mid-pool and at its end, after hashable ones have been ranked.
MIXED_POOL = [
    Descriptor(1, 0, (5,)),
    Descriptor(2, 0, (1,)),
    Descriptor(3, 0, [3]),
    Descriptor(4, 0, (2,)),
    Descriptor(5, 0, [7]),
]


def reference_ranking(pool, reference, k):
    ranked = sorted(
        pool, key=lambda d: (first_coordinate_distance(reference, d.profile), d.node_id)
    )
    return [d.node_id for d in ranked[:k]]


def test_unhashable_profiles_disable_caching_without_changing_results():
    proximity = CountingProximity()
    pool = [Descriptor(1, 0, [3]), Descriptor(2, 0, [12])]
    reference = [10]
    first = select_closest(pool, reference, proximity, 2)
    assert [d.node_id for d in first] == [2, 1]
    assert proximity.calls == 2
    # Nothing is memoized: a second ranking calls the metric again and
    # gives the same answer.
    assert select_closest(pool, reference, proximity, 2) == first
    assert proximity.calls == 4


@pytest.mark.parametrize("k", [1, 3, 5])
def test_select_closest_ranks_unhashable_profiles_through_the_cache(k):
    reference = (0,)
    proximity = Proximity(first_coordinate_distance)
    picked = select_closest(MIXED_POOL, reference, proximity, k)
    assert [d.node_id for d in picked] == reference_ranking(MIXED_POOL, reference, k)
    assert select_closest(MIXED_POOL, reference, proximity, k) == picked


def test_select_closest_with_a_lone_unhashable_candidate():
    reference = (0,)
    proximity = Proximity(first_coordinate_distance)
    pool = [Descriptor(1, 0, [3]), Descriptor(2, 0, [1])]
    picked = select_closest(pool, reference, proximity, 1)
    assert [d.node_id for d in picked] == [2]


@pytest.mark.parametrize("k", [1, 3, 5])
def test_closest_to_ranks_unhashable_profiles_through_the_cache(k):
    reference = (0,)
    proximity = Proximity(first_coordinate_distance)
    view = PartialView(8, MIXED_POOL)
    picked = view.closest_to(k, proximity, reference)
    assert [d.node_id for d in picked] == reference_ranking(MIXED_POOL, reference, k)
    assert view.closest_to(k, proximity, reference) == picked
