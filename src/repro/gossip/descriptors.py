"""Node descriptors — the records gossip messages carry.

A descriptor advertises a node to its peers: its identity, a logical *age*
(rounds since the descriptor was created, the staleness signal the
peer-sampling healer uses), and a layer-specific *profile* (the coordinate a
proximity function ranks on — a ring position, a component name + rank, ...).

When causal propagation tracing is enabled (see :mod:`repro.obs.flow`), a
descriptor additionally carries a provenance tag: one integer, the round its
owner minted it in, riding unchanged through every gossip exchange. The
origin is the descriptor's own ``node_id`` and the hop count is read off the
tracer's first-delivery chain, so no exchange ever rewrites a descriptor.
The tag is pure metadata: it participates in neither equality nor ordering,
so tagged and untagged runs make byte-identical selection decisions.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional


_new = tuple.__new__


class _Fields(NamedTuple):
    """Lends :class:`Descriptor` its C-level field accessors, nothing else
    (a named-tuple *base* would add ``_replace`` / ``_make`` / ``_fields``)."""

    node_id: int
    age: int
    profile: Any
    provenance: Optional[int]


class Descriptor(tuple):
    """An immutable advertisement of one node at one layer.

    Immutability keeps views safe to share between protocol buffers: aging a
    descriptor produces a new record (:meth:`aged`) rather than mutating one
    that may sit in a peer's in-flight message. The record is a tuple, so
    every copy below — and the wire codec's, the view's lazy aging and
    pickle's rebuild — is one ``tuple.__new__`` with no Python-level
    constructor; only this public constructor coerces its arguments.
    """

    __slots__ = ()
    node_id = _Fields.node_id
    age = _Fields.age
    profile = _Fields.profile
    provenance = _Fields.provenance

    def __new__(
        cls,
        node_id: int,
        age: int = 0,
        profile: Any = None,
        provenance: Optional[int] = None,
    ):
        return _new(cls, (int(node_id), int(age), profile, provenance))

    def __reduce__(self):
        # One tuple.__new__ on unpickling, for any caller that pickles a
        # descriptor. The sharded engine does not: its pipe carries rows.
        return (_new, (Descriptor, tuple(self)))

    def aged(self, increment: int = 1) -> "Descriptor":
        """A copy of this descriptor, ``increment`` rounds older."""
        return _new(Descriptor, (self[0], self[1] + increment, self[2], self[3]))

    def fresh(self) -> "Descriptor":
        """A copy with age reset to zero (a node advertising itself)."""
        return _new(Descriptor, (self[0], 0, self[2], self[3]))

    def with_profile(self, profile: Any) -> "Descriptor":
        """A copy carrying a different profile (used on reconfiguration)."""
        return _new(Descriptor, (self[0], self[1], profile, self[3]))

    def tagged(self, minted_round: Optional[int]) -> "Descriptor":
        """A copy tagged with the round it was minted in (flow tracing)."""
        return _new(Descriptor, (self[0], self[1], self[2], minted_round))

    # Equality is identity + freshness; the profile rides along (two
    # descriptors for the same node at the same layer carry equal profiles).
    # The tag is observational metadata and deliberately excluded. Anything
    # else gets ``False``, never ``NotImplemented``: for a plain tuple the
    # reflected ``tuple.__eq__`` would compare the four fields and say yes.
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Descriptor) and self[0] == other[0] and self[1] == other[1]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:2])

    # No ordering, as before: the tuple's would rank on profile and tag.
    def __lt__(self, other: object):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self) -> str:
        return f"Descriptor(node={self[0]}, age={self[1]}, profile={self[2]!r})"


def youngest(a: Optional[Descriptor], b: Optional[Descriptor]) -> Optional[Descriptor]:
    """Of two descriptors for the same node, the fresher one (lower age)."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a.age <= b.age else b
