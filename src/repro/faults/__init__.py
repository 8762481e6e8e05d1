"""Fault injection: partitions, correlated outages, degraded links.

The subsystem has three planes, mirroring how real deployments fail:

- **topology** (:mod:`~repro.faults.plane`): a :class:`FaultPlane` that
  :class:`~repro.faults.transports.FaultTransport` consults on every
  peer-addressed exchange — network partitions (reachability) and
  per-link quality overrides (loss, latency);
- **placement** (:mod:`~repro.faults.zones`): a :class:`ZoneMap` grouping
  nodes into availability zones so failures can be *correlated*;
- **schedule** (:mod:`~repro.faults.controls`): engine controls that fire
  and heal faults at round boundaries — :class:`Partition`,
  :class:`ZoneOutage`, :class:`PauseResume`, :class:`LinkDegradation`.

The package is injection only. Measuring recovery lives elsewhere:
:class:`repro.obs.recovery.RecoveryObserver` times each layer's repair
against the plane's event log, and :mod:`repro.heal.scenarios` holds the
scenario rows behind ``python -m repro faults`` and ``python -m repro
heal``.
"""

from repro.faults.controls import (
    LinkDegradation,
    Partition,
    PauseResume,
    ZoneOutage,
)
from repro.faults.plane import (
    PERFECT_LINK,
    FaultEvent,
    FaultPlane,
    LinkFaults,
    LinkQuality,
    split_by_zone,
    split_islands,
)
from repro.faults.zones import ZoneMap

__all__ = [
    "PERFECT_LINK",
    "FaultEvent",
    "FaultPlane",
    "LinkDegradation",
    "LinkFaults",
    "LinkQuality",
    "Partition",
    "PauseResume",
    "ZoneMap",
    "ZoneOutage",
    "split_by_zone",
    "split_islands",
]
