"""The layer profile nodes advertise once they hold a role in an assembly."""

from __future__ import annotations

from typing import Any, NamedTuple


class NodeProfile(NamedTuple):
    """What a node's gossip descriptors say about its place in the assembly.

    Attributes
    ----------
    component:
        Name of the component the node belongs to.
    rank:
        The node's rank within its component (``0 .. comp_size - 1``); the
    comp_size:
        Size of the component at assignment time — together with ``rank``
        this pins the node's coordinate in the component's shape.
    coord:
        The shape coordinate derived from the rank (what the component's
        core-protocol metric ranks on).
    """

    component: str
    rank: int
    comp_size: int
    coord: Any
