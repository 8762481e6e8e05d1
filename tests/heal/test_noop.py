"""The no-op path: an armed engine must not perturb a healthy run.

The closed loop's zero-interference contract: attaching the collector,
health monitor, recovery observer, and remediation engine to a healthy
deployment changes *nothing* — no alert fires, no action runs, and the
realized overlay stays byte-identical to a bare, unmanaged run of the same
seed. Verified at the strongest level available: the canonical overlay
digest.
"""

from __future__ import annotations

from repro.heal.engine import RemediationEngine
from repro.heal.scenarios import _arm, standard_deployment
from repro.obs.collector import Collector
from repro.perf.digest import overlay_digest

LAYERS = ("peer_sampling", "uo1", "core", "port_selection", "port_connection")

N_NODES = 48
SEED = 11
# Longer than the stall rule's window, so a healthy run also proves the
# stalled-convergence rule stays quiet under steady state.
EXTRA_ROUNDS = 15


def _bare_digest() -> str:
    deployment = standard_deployment(N_NODES, SEED)
    deployment.run_until_converged(120)
    deployment.run(EXTRA_ROUNDS)
    return overlay_digest(deployment.network, LAYERS)


def _managed_digest():
    collector = Collector()
    deployment = standard_deployment(N_NODES, SEED, collector=collector)
    deployment.run_until_converged(120)
    _, monitor = _arm(deployment, deployment.install_faults(), collector)
    engine = RemediationEngine.for_deployment(deployment, monitor)
    deployment.run(EXTRA_ROUNDS)
    return overlay_digest(deployment.network, LAYERS), engine, monitor


def test_armed_engine_is_invisible_on_a_healthy_run():
    digest, engine, monitor = _managed_digest()
    assert digest == _bare_digest()  # byte-identical overlay
    assert engine.verdict() == "idle"
    assert engine.timeline() == []
    assert engine.actions_run == 0
    assert monitor.active_alerts() == []
    remediation_kinds = {
        "remediation",
        "incident_recovered",
        "incident_unrecoverable",
    }
    assert not [
        event
        for event in monitor.collector.events
        if event.kind in remediation_kinds
    ]
