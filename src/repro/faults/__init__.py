"""Fault injection and self-healing verification.

The subsystem has four planes, mirroring how real deployments fail:

- **topology** (:mod:`~repro.faults.plane`): a :class:`FaultPlane` that
  :class:`~repro.faults.transports.FaultTransport` consults on every
  peer-addressed exchange — network partitions (reachability) and
  per-link quality overrides (loss, latency);
- **placement** (:mod:`~repro.faults.zones`): a :class:`ZoneMap` grouping
  nodes into availability zones so failures can be *correlated*;
- **schedule** (:mod:`~repro.faults.controls`): engine controls that fire
  and heal faults at round boundaries — :class:`Partition`,
  :class:`ZoneOutage`, :class:`PauseResume`, :class:`LinkDegradation`;
- **verification**: :class:`repro.obs.recovery.RecoveryObserver` measures
  per-layer time-to-repair against the plane's event log, and
  :mod:`~repro.faults.scenarios` is the standard fault-matrix suite behind
  ``python -m repro faults``.
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
from repro.faults.scenarios import (
    SCENARIOS,
    ScenarioResult,
    format_scenario,
    run_fault_matrix,
)
from repro.faults.zones import ZoneMap

__all__ = [
    "PERFECT_LINK",
    "SCENARIOS",
    "FaultEvent",
    "FaultPlane",
    "LinkDegradation",
    "LinkFaults",
    "LinkQuality",
    "Partition",
    "PauseResume",
    "ScenarioResult",
    "ZoneMap",
    "ZoneOutage",
    "format_scenario",
    "run_fault_matrix",
    "split_by_zone",
    "split_islands",
]
