"""Tests for proximity functions and descriptor-selection helpers."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.gossip.descriptors import Descriptor
from repro.gossip.selection import Proximity, rank_by_distance, select_closest
from repro.gossip.views import PartialView
from tests.gossip.helpers import FilteredProximity, dedupe_youngest


def absolute(a, b):
    return abs(a - b)


class TestProximity:
    def test_delegates_distance(self):
        assert Proximity(absolute).distance(3, 7) == 4

    def test_default_eligibility_is_true(self):
        assert Proximity(absolute).eligible(1, 2)

    def test_filtered_proximity(self):
        proximity = FilteredProximity(absolute, lambda a, b: (a + b) % 2 == 0)
        assert proximity.eligible(1, 3)
        assert not proximity.eligible(1, 2)
        assert proximity.distance(1, 3) == 2


class TestDedupeYoungest:
    def test_keeps_youngest_copy(self):
        result = dedupe_youngest(
            [Descriptor(1, 5), Descriptor(1, 2), Descriptor(2, 0)]
        )
        ages = {d.node_id: d.age for d in result}
        assert ages == {1: 2, 2: 0}

    def test_empty(self):
        assert dedupe_youngest([]) == []


class TestRankByDistance:
    def test_sorted_ascending(self):
        pool = [Descriptor(i, 0, profile=i) for i in (9, 2, 6)]
        ranked = rank_by_distance(pool, 5, Proximity(absolute))
        assert [d.node_id for d in ranked] == [6, 2, 9]

    def test_tie_breaks_by_node_id(self):
        pool = [Descriptor(8, 0, profile=6), Descriptor(3, 0, profile=4)]
        ranked = rank_by_distance(pool, 5, Proximity(absolute))
        assert [d.node_id for d in ranked] == [3, 8]


class TestSelectClosest:
    def test_selects_k_closest(self):
        pool = [Descriptor(i, 0, profile=i) for i in range(10)]
        best = select_closest(pool, 5, Proximity(absolute), 3)
        assert {d.node_id for d in best} == {4, 5, 6}

    def test_excludes_id(self):
        pool = [Descriptor(i, 0, profile=i) for i in range(5)]
        best = select_closest(pool, 2, Proximity(absolute), 5, exclude_id=2)
        assert 2 not in {d.node_id for d in best}

    def test_applies_eligibility(self):
        proximity = FilteredProximity(absolute, lambda a, b: b % 2 == 0)
        pool = [Descriptor(i, 0, profile=i) for i in range(6)]
        best = select_closest(pool, 0, proximity, 10)
        assert {d.profile for d in best} == {0, 2, 4}

    def test_dedupes_before_ranking(self):
        pool = [Descriptor(1, 7, profile=1), Descriptor(1, 0, profile=1)]
        best = select_closest(pool, 0, Proximity(absolute), 5)
        assert len(best) == 1
        assert best[0].age == 0

    @settings(max_examples=60, deadline=None)
    @given(
        profiles=st.lists(st.integers(-50, 50), min_size=1, max_size=30),
        reference=st.integers(-50, 50),
        k=st.integers(1, 10),
    )
    def test_result_is_optimal_prefix(self, profiles, reference, k):
        """No unselected candidate may be strictly closer than a selected one."""
        pool = [Descriptor(i, 0, profile=p) for i, p in enumerate(profiles)]
        best = select_closest(pool, reference, Proximity(absolute), k)
        assert len(best) == min(k, len(pool))
        if len(best) < len(pool):
            worst_selected = max(abs(d.profile - reference) for d in best)
            chosen = {d.node_id for d in best}
            for descriptor in pool:
                if descriptor.node_id not in chosen:
                    assert abs(descriptor.profile - reference) >= worst_selected


def test_unhashable_profiles_rank_like_rank_by_distance():
    """Nothing hashes a profile: list-valued ones rank through
    ``select_closest`` and ``PartialView.closest_to`` exactly as the sorted
    reference does, ties to the lowest id included."""
    proximity = Proximity(lambda a, b: abs(a[0] - b[0]))
    pool = [Descriptor(i, 0, profile=[p]) for i, p in enumerate((5, 1, 3, 2, 7, 3))]
    reference = [3]
    ranked = rank_by_distance(pool, reference, proximity)
    view = PartialView(8)
    view.merge(pool)
    for k in range(len(pool) + 1):
        assert select_closest(pool, reference, proximity, k) == ranked[:k]
        assert view.closest_to(k, proximity, reference) == ranked[:k]
