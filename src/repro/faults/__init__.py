"""Fault injection: partitions, correlated outages, degraded links.

The subsystem has three parts, mirroring how real deployments fail:

- **the fault plane** (:mod:`~repro.faults.transports`): one
  :class:`FaultTransport` decorator per deployment
  (``Deployment.install_faults``) owns the partition map, one zone-pair
  link-quality table (loss, latency) and the fault event log, and vetoes or
  delays every peer-addressed exchange accordingly;
- **placement** (:mod:`~repro.faults.zones`): a :class:`ZoneMap` grouping
  nodes into availability zones so failures can be *correlated*;
- **schedule** (:mod:`~repro.faults.schedule`): a :class:`FaultSchedule`
  is plain data, ``(round, op, args)`` events that round-trip through JSON,
  built by :func:`partition`, :func:`zone_outage`, :func:`pause_resume`,
  :func:`link_degradation`, :func:`random_churn` and
  :func:`catastrophic_failure`; one :class:`Executor` control applies each
  event at the start of its round.

The package is injection only. Measuring recovery lives elsewhere:
:class:`repro.obs.recovery.RecoveryObserver` times each layer's repair on
the convergence tracker's per-round verdicts against the decorator's event
log, and :mod:`repro.heal.scenarios` holds
the scenario rows behind ``python -m repro faults`` and ``python -m repro
heal``.
"""

from repro.faults.schedule import (
    Event,
    Executor,
    FaultSchedule,
    apply,
    catastrophic_failure,
    link_degradation,
    partition,
    pause_resume,
    random_churn,
    split_islands,
    zone_outage,
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
    "Event",
    "Executor",
    "FaultEvent",
    "FaultSchedule",
    "FaultTransport",
    "LinkQuality",
    "ZoneMap",
    "apply",
    "catastrophic_failure",
    "link_degradation",
    "partition",
    "pause_resume",
    "random_churn",
    "split_islands",
    "zone_outage",
]
