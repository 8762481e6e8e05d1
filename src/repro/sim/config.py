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
    """

    view_size: int = 12
    gossip_size: int = 6
    healer: int = 1
    swapper: int = 4

    def __post_init__(self) -> None:
        if self.view_size < 1:
            raise ConfigurationError(f"view_size must be >= 1, got {self.view_size}")
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

    def resized(self, view_size: int) -> "GossipParams":
        """These parameters fitted to a view of ``view_size`` entries.

        The one sizing rule of every shape-sized overlay: the gossip buffer
        never exceeds the view plus the sender's own descriptor, and the
        healer/swapper split is clamped so a view smaller than the default
        (a two-node component) still validates.
        """
        healer = min(self.healer, view_size)
        return GossipParams(
            view_size=view_size,
            gossip_size=min(self.gossip_size, view_size + 1),
            healer=healer,
            swapper=min(self.swapper, view_size - healer),
        )


#: Bytes of one have-digest entry on a request (UO1 lists the node ids in its
#: view, UO2 the components it holds a contact in): the width the descriptor
#: record below gives a node identifier or a component-name hash. A constant
#: of the cost model, not a knob — nothing in the repository prices it
#: differently.
DIGEST_ENTRY_BYTES = 4


@dataclass(frozen=True)
class TransportCosts:
    """Byte-cost model used for bandwidth accounting (paper Fig. 4).

    A gossip message carries a fixed header plus one *descriptor* per view
    entry shipped. A descriptor serializes a node identifier, a logical age,
    and a layer profile (component name hash, rank, coordinate) — 24 bytes is
    the size of that record in a compact binary encoding. A request may also
    carry a *have-digest*, charged at :data:`DIGEST_ENTRY_BYTES` per entry.
    """

    header_bytes: int = 16
    descriptor_bytes: int = 24

    def __post_init__(self) -> None:
        if self.header_bytes < 0 or self.descriptor_bytes < 0:
            raise ConfigurationError("byte costs must be >= 0")

    def message_bytes(self, n_descriptors: int, n_digest_entries: int = 0) -> int:
        """Size in bytes of one message carrying ``n_descriptors`` entries
        and a have-digest of ``n_digest_entries``."""
        if n_descriptors < 0 or n_digest_entries < 0:
            raise ConfigurationError("n_descriptors and n_digest_entries must be >= 0")
        return (
            self.header_bytes
            + n_descriptors * self.descriptor_bytes
            + n_digest_entries * DIGEST_ENTRY_BYTES
        )
