"""Zone-aware node placement.

Correlated failures are the cloud's signature failure mode: machines share
racks, racks share power feeds, zones share control planes. A
:class:`ZoneMap` assigns every node to a named zone so fault controls can
kill or degrade *whole zones at once* (see
:func:`~repro.faults.schedule.zone_outage` and the zone-pair link table of
:class:`~repro.faults.transports.FaultTransport`). A node that must fail
alone is a one-node zone.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.network import Network


class ZoneMap:
    """A node → zone assignment.

    Nodes never seen by the assignment (e.g. joined after placement) are
    placed deterministically by ``node_id % len(zones)`` on first lookup, so
    churn under an active zone model stays well-defined.
    """

    def __init__(self, zone_names: Sequence[str]):
        if not zone_names:
            raise ConfigurationError("a ZoneMap needs at least one zone name")
        if len(set(zone_names)) != len(zone_names):
            raise ConfigurationError(f"duplicate zone names in {zone_names!r}")
        self.zone_names: List[str] = list(zone_names)
        self._zone_of: Dict[int, str] = {}

    # -- construction ---------------------------------------------------------

    @classmethod
    def round_robin(
        cls, node_ids: Iterable[int], zone_names: Sequence[str]
    ) -> "ZoneMap":
        """Stripe sorted node ids across the zones (rack-aware default)."""
        zone_map = cls(zone_names)
        for index, node_id in enumerate(sorted(node_ids)):
            zone_map._zone_of[node_id] = zone_map.zone_names[
                index % len(zone_map.zone_names)
            ]
        return zone_map

    def annotate(self, network: Network) -> None:
        """Stamp each node's zone into ``node.attributes['zone']``."""
        for node in network.nodes():
            node.attributes["zone"] = self.zone_of(node.node_id)

    # -- lookup ---------------------------------------------------------------

    def zone_of(self, node_id: int) -> str:
        zone = self._zone_of.get(node_id)
        if zone is None:
            zone = self.zone_names[node_id % len(self.zone_names)]
            self._zone_of[node_id] = zone
        return zone

    def members(self, zone: str, node_ids: Optional[Iterable[int]] = None) -> List[int]:
        """Ids assigned to ``zone`` (restricted to ``node_ids`` when given)."""
        if zone not in self.zone_names:
            raise ConfigurationError(
                f"unknown zone {zone!r} (zones: {self.zone_names})"
            )
        if node_ids is None:
            node_ids = self._zone_of.keys()
        return sorted(nid for nid in node_ids if self.zone_of(nid) == zone)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._zone_of

    def __repr__(self) -> str:
        return f"ZoneMap(zones={self.zone_names}, placed={len(self._zone_of)})"
