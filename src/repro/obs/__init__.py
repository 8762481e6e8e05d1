"""Observability — one instrumentation spine for every runtime layer.

Round hooks, the event log, the fault subsystem's recovery verifier and
structural gauges all go through a single layered telemetry pipeline:

- :class:`~repro.obs.instrument.Instrument` — the unified protocol: round
  observation (``observe``), event emission (``emit``), counters
  (``count``), gauges (``gauge``), and round-scoped spans
  (``span_begin``/``span_end``). Every method is a no-op by default, so the
  disabled hot path costs one ``is None`` check and nothing else.
- :class:`~repro.obs.collector.Collector` — the one concrete sink:
  per-layer counters (messages, descriptor churn, view replacements),
  per-round gauges (population, degree distributions, UO2 bucket
  occupancy, core convergence score), the typed event stream of
  :mod:`repro.obs.events`, and wall-clock spans timed through the single
  sanctioned clock site :mod:`repro.obs.spans` (DET003-exempt).
- :mod:`~repro.obs.export` — JSONL event streams and a Prometheus-style
  text snapshot, surfaced via ``repro obs`` and the ``--obs`` flag on
  ``repro faults`` / ``repro heal``.
- :class:`~repro.obs.flow.FlowTracer` — causal propagation tracing:
  provenance-tagged self-advertisements yield per-layer propagation-latency
  distributions, the information-flow graph, and the convergence critical
  path (``repro obs --flow``).
- :class:`~repro.obs.health.HealthMonitor` — typed online alert rules
  (stalled convergence, partition suspicion, degree skew, churn spikes,
  dead-descriptor buildup) emitting ``alert``/``alert_cleared`` events.
- :mod:`~repro.obs.watch` — the ``repro watch`` live terminal view and the
  per-span self-time rows behind ``repro report --profile``.

Collectors are wired in through :func:`~repro.obs.hooks.attach_collector`
(deployments) or the ``obs=`` parameter of
:class:`~repro.sim.engine.Engine` (bare engines); instrumentation is
deliberately excluded from overlay digests, so the committed digests are
byte-identical with and without a collector.
"""

import importlib

#: public name -> defining submodule. Resolution is lazy (PEP 562): eager
#: imports here would cycle — obs.recovery imports core.convergence and
#: faults.plane, both of which import obs.instrument through their own
#: package fronts — and in-repo call sites import the submodules directly
#: anyway (the package front door is for interactive and downstream use).
_EXPORTS = {
    "Collector": "repro.obs.collector",
    "TAXONOMY": "repro.obs.events",
    "known_kinds": "repro.obs.events",
    "read_jsonl": "repro.obs.export",
    "to_jsonl": "repro.obs.export",
    "to_prometheus": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
    "write_prometheus": "repro.obs.export",
    "CriticalPath": "repro.obs.flow",
    "Delivery": "repro.obs.flow",
    "FlowTracer": "repro.obs.flow",
    "Alert": "repro.obs.health",
    "HealthMonitor": "repro.obs.health",
    "HealthRule": "repro.obs.health",
    "default_rules": "repro.obs.health",
    "attach_collector": "repro.obs.hooks",
    "attach_collector_to_engine": "repro.obs.hooks",
    "attach_health": "repro.obs.hooks",
    "profile_rows": "repro.obs.watch",
    "render_dashboard": "repro.obs.watch",
    "NULL_INSTRUMENT": "repro.obs.instrument",
    "Instrument": "repro.obs.instrument",
    "NullInstrument": "repro.obs.instrument",
    "EventRecovery": "repro.obs.recovery",
    "RecoveryObserver": "repro.obs.recovery",
    "RecoveryReport": "repro.obs.recovery",
    "ConvergenceTracer": "repro.obs.trace",
    "PopulationTracer": "repro.obs.trace",
    "TraceEvent": "repro.obs.trace",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: resolve each name at most once
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "NULL_INSTRUMENT",
    "TAXONOMY",
    "Alert",
    "Collector",
    "ConvergenceTracer",
    "CriticalPath",
    "Delivery",
    "EventRecovery",
    "FlowTracer",
    "HealthMonitor",
    "HealthRule",
    "Instrument",
    "NullInstrument",
    "PopulationTracer",
    "RecoveryObserver",
    "RecoveryReport",
    "TraceEvent",
    "attach_collector",
    "attach_collector_to_engine",
    "attach_health",
    "default_rules",
    "known_kinds",
    "profile_rows",
    "read_jsonl",
    "render_dashboard",
    "to_jsonl",
    "to_prometheus",
    "write_jsonl",
    "write_prometheus",
]
