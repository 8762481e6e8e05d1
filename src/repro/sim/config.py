"""Configuration objects for the simulator and the gossip substrate.

The paper's evaluation configures PeerSim through a properties file; we expose
the same knobs as validated dataclasses. All validation happens eagerly in
``__post_init__`` so a bad experiment fails before any simulation time is
spent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class GossipParams:
    """Parameters shared by the gossip protocols in :mod:`repro.gossip`.

    Attributes
    ----------
    view_size:
        Maximum number of descriptors a node keeps in its partial view
        (PeerSim / peer-sampling parameter *C*).
    gossip_size:
        Number of descriptors shipped per gossip message (*m* in T-Man,
        the buffer size in the peer-sampling framework).
    healer:
        Peer-sampling *H* parameter — how many of the oldest descriptors are
        discarded after each exchange. Larger values heal dead links faster.
    swapper:
        Peer-sampling *S* parameter — how many sent descriptors are discarded
        in favour of received ones (controls view mixing).
    backend:
        Partial-view representation: ``"object"`` (the boxed-descriptor
        :class:`~repro.gossip.views.PartialView`, default) or ``"columnar"``
        (the array-backed :class:`~repro.scale.columnar.ColumnarView`).
        The two are observably identical — selecting a backend never
        changes a digest — so this is purely a memory/speed knob.
    """

    view_size: int = 12
    gossip_size: int = 6
    healer: int = 1
    swapper: int = 4
    backend: str = "object"

    def __post_init__(self) -> None:
        if self.view_size < 1:
            raise ConfigurationError(f"view_size must be >= 1, got {self.view_size}")
        if self.backend not in ("object", "columnar"):
            raise ConfigurationError(
                f"backend must be 'object' or 'columnar', got {self.backend!r}"
            )
        if not 1 <= self.gossip_size <= self.view_size + 1:
            raise ConfigurationError(
                f"gossip_size must be in [1, view_size + 1], got {self.gossip_size}"
            )
        if self.healer < 0 or self.swapper < 0:
            raise ConfigurationError("healer and swapper must be >= 0")
        if self.healer + self.swapper > self.view_size:
            raise ConfigurationError(
                "healer + swapper must not exceed view_size "
                f"({self.healer} + {self.swapper} > {self.view_size})"
            )


@dataclass(frozen=True)
class TransportCosts:
    """Byte-cost model used for bandwidth accounting (paper Fig. 4).

    A gossip message carries a fixed header plus one *descriptor* per view
    entry shipped. A descriptor serializes a node identifier, a logical age,
    and a layer profile (component name hash, rank, coordinate) — 24 bytes is
    the size of that record in a compact binary encoding.
    """

    header_bytes: int = 16
    descriptor_bytes: int = 24

    def __post_init__(self) -> None:
        if self.header_bytes < 0 or self.descriptor_bytes < 0:
            raise ConfigurationError("byte costs must be >= 0")

    def message_bytes(self, n_descriptors: int) -> int:
        """Size in bytes of one message carrying ``n_descriptors`` entries."""
        if n_descriptors < 0:
            raise ConfigurationError("n_descriptors must be >= 0")
        return self.header_bytes + n_descriptors * self.descriptor_bytes
