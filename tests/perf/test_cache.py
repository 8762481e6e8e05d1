"""Unit tests for the memoized distance cache on the overlay hot path."""

from __future__ import annotations

from collections import Counter

from repro.gossip.selection import FilteredProximity, Proximity
from repro.perf.cache import _MAX_ENTRIES, DistanceCache


class CountingProximity(Proximity):
    """Counts underlying distance evaluations."""

    def __init__(self):
        super().__init__(lambda a, b: abs(a - b))
        self.calls = 0

    def distance(self, a, b):
        self.calls += 1
        return super().distance(a, b)


def test_memoizes_self_referenced_distances():
    computed = Counter()

    def metric(a, b):
        computed[a, b] += 1
        return abs(a - b)

    cache = DistanceCache(Proximity(metric), reference=10)
    assert cache.to(3) == 7
    assert cache.to(3) == 7
    assert cache.to(3) == 7
    assert computed == Counter({(10, 3): 1})
    assert cache.to(4) == 6
    assert cache.to(3) == 7 and cache.to(4) == 6
    # One computation per profile per reference, however often it is asked.
    assert computed == Counter({(10, 3): 1, (10, 4): 1})


def test_distance_passes_through_for_foreign_reference():
    base = CountingProximity()
    cache = DistanceCache(base, reference=10)
    # Ranking for a partner's profile must not be memoized against ours.
    assert cache.distance(4, 6) == 2
    assert cache.distance(4, 6) == 2
    assert base.calls == 2
    # But the self-referenced form routes into the memo.
    assert cache.distance(10, 6) == 4
    assert cache.distance(10, 6) == 4
    assert base.calls == 3


def test_rebind_invalidates_the_memo():
    base = CountingProximity()
    cache = DistanceCache(base, reference=10)
    assert cache.to(5) == 5
    cache.rebind(0)
    assert cache.to(5) == 5
    assert base.calls == 2
    assert cache.distance(0, 5) == 5  # new reference is now the cached one
    assert base.calls == 2


def test_eligibility_delegates_to_base():
    base = FilteredProximity(lambda a, b: abs(a - b), lambda a, b: b % 2 == 0)
    cache = DistanceCache(base, reference=1)
    assert cache.eligible(1, 4)
    assert not cache.eligible(1, 3)


def test_unhashable_profiles_disable_caching_without_changing_results():
    base = CountingProximity()
    base._distance = lambda a, b: abs(a[0] - b[0])  # list profiles
    cache = DistanceCache(base, reference=[10])
    assert cache.to([3]) == 7
    assert cache.to([3]) == 7
    assert base.calls == 2  # every call hits the base: no memo, same values


def test_cache_bounded_by_max_entries():
    base = CountingProximity()
    cache = DistanceCache(base, reference=0)
    for profile in range(_MAX_ENTRIES + 10):
        cache.to(profile)
    # Overflow clears rather than grows without bound.
    assert len(cache._cache) <= _MAX_ENTRIES
    assert cache.to(1) == 1  # still correct afterwards
