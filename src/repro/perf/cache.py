"""Memoized proximity distances for the select-style overlay protocols.

T-Man and Vicinity both observe that evaluating the ranking function is the
dominant cost of gossip topology construction: every round, each node ranks
its whole candidate pool against its *own* profile — and a node's profile
changes only at reconfiguration, while the candidate profiles it ranks are
the same few dozen peers round after round. :class:`DistanceCache` exploits
exactly that shape: it memoizes ``distance(reference, profile)`` for one
bound reference profile and passes every other query through unchanged.
"""

from __future__ import annotations

from typing import Any

from repro.gossip.selection import Profile, Proximity

#: Cache-miss sentinel (``None`` would be ambiguous only if a metric returned
#: ``None``, which is invalid anyway — but a sentinel costs nothing).
_MISS: Any = object()

#: Safety valve: profiles seen from one reference are bounded by the live
#: population, but a pathological metric over unbounded profile values must
#: not leak memory across a long churn run.
_MAX_ENTRIES = 4096


class DistanceCache(Proximity):
    """A :class:`Proximity` that memoizes distances from one reference profile.

    Drop-in: pass it wherever the wrapped proximity was passed. Queries with
    ``a is reference`` (the hot self-ranking path of ``_merge``-style view
    selection and ``neighbors()``) hit the memo; queries against any other
    reference (e.g. ranking a buffer for a gossip *partner*) delegate to the
    wrapped proximity untouched, so semantics are identical by construction.

    The cache is keyed by the candidate profile itself. Unhashable profiles
    disable memoization permanently for this instance (correctness first);
    :meth:`rebind` — called on reconfiguration, when the owner adopts a new
    profile — invalidates everything, because every memoized distance was
    measured from the old reference.
    """

    def __init__(self, base: Proximity, reference: Profile):
        self.base = base
        self.reference = reference
        self._cache: dict = {}
        self._cacheable = True
        # Bind the base's eligibility directly on the instance: eligibility
        # is evaluated once per candidate on the hot path, and a delegating
        # method would add a Python frame per call for nothing.
        self.eligible = base.eligible

    def rebind(self, reference: Profile) -> None:
        """Bind a new reference profile, invalidating every memoized distance."""
        self.reference = reference
        self._cache.clear()
        self._cacheable = True

    # -- Proximity interface ---------------------------------------------------

    def distance(self, a: Profile, b: Profile) -> float:
        if a is not self.reference:
            return self.base.distance(a, b)
        return self.to(b)

    # -- the memoized direction ------------------------------------------------

    def lookup_for(self, reference: Profile):
        """The raw ``(memo.get, compute)`` pair for ``reference``, or ``None``.

        The hot-loop protocol :func:`repro.gossip.selection.select_closest`
        probes for this method (duck-typed — selection cannot import this
        module without a cycle): when the ranking reference is the bound one,
        it reads warm distances straight out of the memo dict at C speed and
        only falls into :meth:`to` on a miss.
        """
        if reference is self.reference and self._cacheable:
            return self._cache.get, self.to
        return None

    def to(self, profile: Profile) -> float:
        """``distance(reference, profile)``, memoized.

        Suitable as the ranking key of :meth:`PartialView.closest` (wrapped
        in ``lambda d: cache.to(d.profile)``).
        """
        if not self._cacheable:
            return self.base.distance(self.reference, profile)
        try:
            value = self._cache.get(profile, _MISS)
        except TypeError:  # unhashable profile: stop caching, stay correct
            self._cacheable = False
            self._cache.clear()
            return self.base.distance(self.reference, profile)
        if value is _MISS:
            value = self.base.distance(self.reference, profile)
            if len(self._cache) >= _MAX_ENTRIES:
                self._cache.clear()
            self._cache[profile] = value
        return value
