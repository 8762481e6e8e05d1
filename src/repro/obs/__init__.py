"""Observability — one instrumentation spine for every runtime layer.

Round hooks, the event log, the convergence tracker's verdicts, the fault
subsystem's recovery verifier and structural gauges all go through a single
layered telemetry pipeline:

- :class:`~repro.obs.instrument.Instrument` — the unified protocol: round
  observation (``observe``), event emission (``emit``), counters
  (``count``), gauges (``gauge``), and round-scoped spans
  (``span_begin``/``span_end``). Every method is a no-op by default, so the
  disabled hot path costs one ``is None`` check and nothing else.
- :class:`~repro.obs.collector.Collector` — the one concrete sink:
  per-layer counters (messages, descriptor churn, view replacements),
  per-round gauges (population, degree distributions, UO2 bucket
  occupancy, and the convergence tracker's ``core_score`` and
  ``layers_converged``), the typed event stream of
  :mod:`repro.obs.events`, and wall-clock spans timed through the single
  sanctioned clock site :mod:`repro.obs.spans` (DET003-exempt).
- :mod:`~repro.obs.export` — JSONL event streams and a Prometheus-style
  text snapshot, surfaced via ``repro report --jsonl/--prom`` and the
  ``--obs`` flag on ``repro faults`` / ``repro heal``.
- :class:`~repro.obs.flow.FlowTracer` — causal propagation tracing:
  provenance-tagged self-advertisements yield per-layer propagation-latency
  distributions, the information-flow graph, and the convergence critical
  path (``repro report --flow``).
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
