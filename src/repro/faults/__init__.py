"""Fault injection: partitions, correlated outages, degraded links.

The subsystem has three parts, mirroring how real deployments fail:

- **the fault plane** (:mod:`~repro.faults.transports`): one
  :class:`FaultTransport` decorator per deployment
  (``Deployment.install_faults``) owns the partition map, one zone-pair
  link-quality table (loss, latency) and the fault event log, and vetoes or
  delays every peer-addressed exchange accordingly;
- **placement** (:mod:`~repro.faults.zones`): a :class:`ZoneMap` grouping
  nodes into availability zones so failures can be *correlated*;
- **schedule** (:mod:`~repro.faults.controls`): engine controls that fire
  and heal faults at round boundaries — :class:`Partition`,
  :class:`ZoneOutage`, :class:`PauseResume`, :class:`LinkDegradation`.

The package is injection only. Measuring recovery lives elsewhere:
:class:`repro.obs.recovery.RecoveryObserver` times each layer's repair
against the decorator's event log, and :mod:`repro.heal.scenarios` holds
the scenario rows behind ``python -m repro faults`` and ``python -m repro
heal``.
"""

from repro.faults.controls import (
    LinkDegradation,
    Partition,
    PauseResume,
    ZoneOutage,
    split_islands,
)
from repro.faults.transports import (
    TIMEOUT_ROUNDS,
    FaultEvent,
    FaultTransport,
    LinkQuality,
)
from repro.faults.zones import ZoneMap

__all__ = [
    "TIMEOUT_ROUNDS",
    "FaultEvent",
    "FaultTransport",
    "LinkDegradation",
    "LinkQuality",
    "Partition",
    "PauseResume",
    "ZoneMap",
    "ZoneOutage",
    "split_islands",
]
