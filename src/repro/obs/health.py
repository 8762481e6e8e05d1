"""Online health monitoring — typed alert rules over the telemetry stream.

A :class:`HealthMonitor` is an engine observer that re-reads the attached
:class:`~repro.obs.collector.Collector` after every round and evaluates a
set of stateful :class:`HealthRule` instances against the latest gauges and
counters. Rules are edge-triggered with hysteresis: when a rule first turns
unhealthy an ``alert`` event is emitted (with severity and the evidence
that tripped it), and when it turns healthy again an ``alert_cleared``
event follows — so the event log tells the *story* of a degradation, not a
per-round spam of symptoms.

The built-in rules watch the failure modes the fault subsystem injects:

==============================  ==============================================
rule                            fires when
==============================  ==============================================
:class:`StalledConvergence`     ``layers_converged`` makes no progress below
                                the expected layer count for a full window
:class:`PartitionSuspicion`     UO2's mean bucket fill collapses relative to
                                its own historical peak (foreign components
                                unreachable → buckets starve)
:class:`DegreeSkew`             a layer's max out-degree dwarfs its mean
                                (hub formation / lopsided overlay)
:class:`ChurnSpike`             crash+leave events in one round exceed a
                                threshold (correlated failure wave)
:class:`DeadDescriptorBuildup`  the dead-descriptor fraction stays above a
                                threshold (stale knowledge not flushed)
==============================  ==============================================

Rules only read aggregated telemetry — they never touch the network, RNG
streams, or the wall clock — so attaching a monitor preserves both the
zero-interference contract and determinism (DET003 applies here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs import events as _events
from repro.obs.collector import Collector
from repro.obs.instrument import Instrument
from repro.sim.network import Network

#: Alert severities, mildest first (order is the verdict ranking).
SEVERITIES = ("info", "warning", "critical")

#: Alert-transition callback: ``listener(alert, fired, round_index)``.
AlertListener = Callable[["Alert", bool, int], None]


@dataclass
class Alert:
    """One alert lifecycle: fired at a round, possibly cleared later."""

    rule: str
    severity: str
    round_fired: int
    evidence: Dict[str, Any] = field(default_factory=dict)
    round_cleared: Optional[int] = None

    @property
    def active(self) -> bool:
        return self.round_cleared is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "round_fired": self.round_fired,
            "round_cleared": self.round_cleared,
            "evidence": dict(self.evidence),
        }


class HealthRule:
    """Base of every health rule.

    Subclasses implement :meth:`check`, returning an evidence dict while
    unhealthy and ``None`` while healthy; the monitor turns the transitions
    into ``alert`` / ``alert_cleared`` events. Rules may keep state across
    rounds (windows, peaks) — one rule instance belongs to one monitor.
    """

    name = "health_rule"
    severity = "warning"

    def check(
        self, collector: Collector, network: Network, round_index: int
    ) -> Optional[Dict[str, Any]]:
        raise NotImplementedError


class StalledConvergence(HealthRule):
    """No convergence progress below the expected layer count for a window.

    Reads the ``layers_converged`` gauge, which the convergence tracker
    writes each round with the current — possibly regressed — count. The stall counter resets whenever the
    count increases, so a healing partition clears the alert as soon as
    re-convergence resumes.
    """

    name = "stalled_convergence"
    severity = "critical"

    def __init__(self, expected_layers: int = 5, window: int = 10):
        self.expected_layers = expected_layers
        self.window = window
        self._last: Optional[float] = None
        self._stalled_rounds = 0

    def check(self, collector, network, round_index):
        value = collector.gauge_value("layers_converged")
        if value is None:
            return None  # no convergence telemetry wired
        if value >= self.expected_layers:
            self._stalled_rounds = 0
        elif self._last is not None and value > self._last:
            self._stalled_rounds = 0  # progress
        else:
            self._stalled_rounds += 1
        self._last = value
        if self._stalled_rounds >= self.window:
            return {
                "layers_converged": value,
                "expected_layers": self.expected_layers,
                "stalled_rounds": self._stalled_rounds,
            }
        return None


class PartitionSuspicion(HealthRule):
    """UO2 bucket starvation: mean bucket fill collapses below its peak.

    Behind a partition cut, foreign-component contacts become unreachable —
    UO2 forgets them on failed exchanges and harvesting cannot refill the
    buckets — so ``bucket_fill_mean`` decays. A sustained drop below
    ``drop_fraction`` of the historical peak is strong partition evidence.
    """

    name = "partition_suspicion"
    severity = "warning"

    def __init__(
        self, layer: str = "uo2", drop_fraction: float = 0.5, window: int = 5
    ):
        self.layer = layer
        self.drop_fraction = drop_fraction
        self.window = window
        self._peak = 0.0
        self._low_rounds = 0

    def check(self, collector, network, round_index):
        fill = collector.gauge_value("bucket_fill_mean", layer=self.layer)
        if fill is None:
            return None
        self._peak = max(self._peak, fill)
        if self._peak <= 0.0:
            return None
        if fill < self.drop_fraction * self._peak:
            self._low_rounds += 1
        else:
            self._low_rounds = 0
        if self._low_rounds >= self.window:
            return {
                "layer": self.layer,
                "bucket_fill_mean": fill,
                "peak": self._peak,
                "low_rounds": self._low_rounds,
            }
        return None


class DegreeSkew(HealthRule):
    """A layer's max out-degree dwarfs its mean (hub formation)."""

    name = "degree_skew"
    severity = "warning"

    def __init__(self, max_ratio: float = 4.0, min_mean: float = 1.0):
        self.max_ratio = max_ratio
        self.min_mean = min_mean

    def check(self, collector, network, round_index):
        worst: Optional[Dict[str, Any]] = None
        for layer in collector.layers():
            mean = collector.gauge_value("out_degree_mean", layer=layer)
            peak = collector.gauge_value("out_degree_max", layer=layer)
            if mean is None or peak is None or mean < self.min_mean:
                continue
            ratio = peak / mean
            if ratio > self.max_ratio and (
                worst is None or ratio > worst["ratio"]
            ):
                worst = {
                    "layer": layer,
                    "ratio": ratio,
                    "out_degree_mean": mean,
                    "out_degree_max": peak,
                }
        return worst


class ChurnSpike(HealthRule):
    """Crash+leave events in a single round exceed a threshold."""

    name = "churn_spike"
    severity = "warning"

    def __init__(self, threshold: int = 5):
        self.threshold = threshold
        self._last_total = 0
        self._spike: Optional[Dict[str, Any]] = None

    def check(self, collector, network, round_index):
        total = collector.counter("node_crashes") + collector.counter(
            "node_leaves"
        )
        delta = total - self._last_total
        self._last_total = total
        if delta >= self.threshold:
            self._spike = {"losses_this_round": delta, "threshold": self.threshold}
        elif delta == 0:
            self._spike = None  # a quiet round clears the spike
        return self._spike


class DeadDescriptorBuildup(HealthRule):
    """Stale knowledge is not being flushed (dead-descriptor fraction high)."""

    name = "dead_descriptor_buildup"
    severity = "warning"

    def __init__(self, threshold: float = 0.2, window: int = 5):
        self.threshold = threshold
        self.window = window
        self._high_rounds = 0

    def check(self, collector, network, round_index):
        fraction = collector.gauge_value("dead_descriptor_fraction")
        if fraction is None:
            return None
        if fraction > self.threshold:
            self._high_rounds += 1
        else:
            self._high_rounds = 0
        if self._high_rounds >= self.window:
            return {
                "dead_descriptor_fraction": fraction,
                "threshold": self.threshold,
                "high_rounds": self._high_rounds,
            }
        return None


def default_rules(expected_layers: int = 5) -> List[HealthRule]:
    """The standard rule set watching every injected failure mode."""
    return [
        StalledConvergence(expected_layers=expected_layers),
        PartitionSuspicion(),
        DegreeSkew(),
        ChurnSpike(),
        DeadDescriptorBuildup(),
    ]


class HealthMonitor(Instrument):
    """Engine observer evaluating health rules against a collector.

    Add it *after* the collector (and, on fault runs, after the recovery
    observer) so each round it reads gauges that are already fresh for that
    round. Alerts are mirrored three ways: as typed ``alert`` /
    ``alert_cleared`` events on the collector, as an ``alerts_active``
    gauge, and in :attr:`alerts` for programmatic queries.
    """

    def __init__(
        self,
        collector: Collector,
        rules: Optional[Sequence[HealthRule]] = None,
        expected_layers: int = 5,
    ):
        self.collector = collector
        self.rules: List[HealthRule] = (
            list(rules) if rules is not None else default_rules(expected_layers)
        )
        #: Full alert history, in firing order (cleared ones stay).
        self.alerts: List[Alert] = []
        self._active: Dict[str, Alert] = {}
        self.rounds_checked = 0
        self._listeners: List[AlertListener] = []

    # -- subscription ---------------------------------------------------------

    def subscribe(self, listener: "AlertListener") -> None:
        """Register ``listener(alert, fired, round_index)`` for transitions.

        The listener is invoked synchronously during :meth:`observe`, once
        per edge: ``fired=True`` when a rule turns unhealthy (the alert
        opens), ``fired=False`` when it turns healthy again (the alert
        closes, ``alert.round_cleared`` already set). Listeners see alerts
        in rule-registration order within a round. This is the decide-side
        hook of the observe → decide → act loop: the remediation engine of
        :mod:`repro.heal` subscribes here and acts in the engine's act
        phase of the same round.
        """
        self._listeners.append(listener)

    def _notify(self, alert: Alert, fired: bool, round_index: int) -> None:
        for listener in self._listeners:
            listener(alert, fired, round_index)

    # -- observation ----------------------------------------------------------

    def observe(self, network: Network, round_index: int) -> bool:
        self.rounds_checked += 1
        for rule in self.rules:
            evidence = rule.check(self.collector, network, round_index)
            current = self._active.get(rule.name)
            if evidence is not None and current is None:
                alert = Alert(
                    rule=rule.name,
                    severity=rule.severity,
                    round_fired=round_index,
                    evidence=evidence,
                )
                self._active[rule.name] = alert
                self.alerts.append(alert)
                self.collector.emit(
                    _events.EVENT_ALERT,
                    rule=rule.name,
                    severity=rule.severity,
                    **evidence,
                )
                self._notify(alert, True, round_index)
            elif evidence is not None and current is not None:
                current.evidence = evidence  # keep the freshest evidence
            elif evidence is None and current is not None:
                current.round_cleared = round_index
                del self._active[rule.name]
                self.collector.emit(
                    _events.EVENT_ALERT_CLEARED,
                    rule=rule.name,
                    severity=rule.severity,
                    active_rounds=round_index - current.round_fired,
                )
                self._notify(current, False, round_index)
        self.collector.gauge("alerts_active", len(self._active))
        return False

    # -- queries --------------------------------------------------------------

    def active_alerts(self) -> List[Alert]:
        return [self._active[name] for name in sorted(self._active)]

    def verdict(self) -> str:
        """``healthy``, or the highest severity among active alerts."""
        if not self._active:
            return "healthy"
        worst = max(
            SEVERITIES.index(alert.severity) for alert in self._active.values()
        )
        return SEVERITIES[worst]

    def summary(self) -> Dict[str, Any]:
        """Plain-data view (CLI / scenario-report input)."""
        return {
            "verdict": self.verdict(),
            "rounds_checked": self.rounds_checked,
            "alerts_total": len(self.alerts),
            "alerts_active": len(self._active),
            "alerts": [alert.to_dict() for alert in self.alerts],
        }
