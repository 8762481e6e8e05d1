"""Wiring helpers: attach a collector to a deployment or a bare engine.

The runtime reports telemetry through ``ctx.obs`` — the engine hands every
:class:`~repro.sim.engine.RoundContext` its instrument, and protocol hot
paths guard each call with ``if ctx.obs is not None`` so an uninstrumented
run performs zero observability work. These helpers do the one-time wiring:
set the engine's sink, bind the round clock, emit the ``deploy`` event,
hand the deployment's convergence tracker the collector (its
``layer_converged`` events and ``core_score`` / ``layers_converged``
gauges), and register the population tracer plus the collector's own
sampled structural gauges. Optional extras ride the same call: a
:class:`~repro.obs.flow.FlowTracer` (causal propagation tracing) and a
:class:`~repro.obs.health.HealthMonitor` (typed alert rules over the
collector stream).
"""

from __future__ import annotations

from typing import Optional

from repro.obs import events as _events
from repro.obs.collector import Collector
from repro.obs.trace import PopulationTracer


def attach_collector(
    deployment,
    collector: Optional[Collector] = None,
    gauge_every: int = 1,
    flow=None,
    health: bool = False,
) -> Collector:
    """Wire a collector into a deployment; returns the collector.

    Emits ``deploy`` immediately, then records per-layer counters (via the
    engine's ``ctx.obs``), population and convergence events, sampled
    structural gauges, and per-round spans as rounds execute. Pass an
    existing ``collector`` to aggregate several runs into one sink.

    ``flow`` attaches a :class:`~repro.obs.flow.FlowTracer` (the gossip
    layers mint provenance tags only while one is present). ``health=True``
    adds a :class:`~repro.obs.health.HealthMonitor` with the default rule
    set as the *last* observer — after the convergence tracker, the
    population tracer and the collector, so its rules read gauges already
    fresh for the round — and exposes it as ``collector.health``.
    """
    if collector is None:
        collector = Collector(gauge_every=gauge_every, flow=flow)
    elif flow is not None:
        collector.flow = flow
    engine = deployment.engine
    collector.bind_round_source(lambda: engine.round)
    engine.obs = collector
    collector.emit(
        _events.EVENT_DEPLOY,
        assembly=deployment.assembly.name,
        nodes=deployment.network.size(),
        components=len(deployment.assembly.components),
    )
    deployment.tracker.instrument = collector
    engine.add_observer(PopulationTracer(collector))
    engine.add_observer(collector)
    if health:
        attach_health(deployment, collector)
    return collector


def attach_health(deployment, collector: Collector, rules=None):
    """Add a :class:`~repro.obs.health.HealthMonitor` observing ``collector``.

    Registered after every other observer (call this last) so the rules see
    the round's final gauge values; the monitor is also stored as
    ``collector.health`` for CLI/scenario access. The expected layer count
    is the convergence tracker's five layers.
    """
    from repro.obs.health import HealthMonitor

    expected = len(deployment.tracker.ALL_LAYERS)
    monitor = HealthMonitor(collector, rules=rules, expected_layers=expected)
    deployment.engine.add_observer(monitor)
    collector.health = monitor
    return monitor


def attach_collector_to_engine(
    engine,
    collector: Optional[Collector] = None,
    gauge_every: int = 1,
    flow=None,
) -> Collector:
    """Wire a collector into a bare :class:`~repro.sim.engine.Engine`.

    The deployment-level conveniences (deploy event, convergence
    telemetry, health rules) need oracle state an engine does not have;
    this variant wires only the sink, the round clock, and the sampled
    structural gauges — what perf workloads and hand-built simulations
    need.

    Engines without an observer list (the sharded BSP engine, the UDP
    runtime) still get the sink and the round clock; they report through
    ``obs`` spans/gauges directly instead of per-round observer calls.
    """
    if collector is None:
        collector = Collector(gauge_every=gauge_every, flow=flow)
    elif flow is not None:
        collector.flow = flow
    collector.bind_round_source(lambda: engine.round)
    engine.obs = collector
    add_observer = getattr(engine, "add_observer", None)
    if add_observer is not None:
        add_observer(collector)
    return collector
