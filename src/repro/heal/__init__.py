"""repro.heal — autonomic self-healing: observe → decide → act, closed.

The observability subsystem watches (collector, health rules); this package
*acts*: a :class:`~repro.heal.engine.RemediationEngine` subscribes to
health-alert transitions, maps each typed alert to a remediation action
under a bounded, deterministic retry policy, and escalates — local action →
component re-seed → ``unrecoverable`` — when local repair cannot close the
incident. The adversarial harness and the scenario catalogue quantify the
loop: corrupted-state starts, managed vs unmanaged, time-to-stabilize. The
catalogue (:mod:`~repro.heal.scenarios`) also holds the fault rows behind
``python -m repro faults``: every scenario is one row of one table.

Everything here obeys the determinism discipline (the DET linter covers
``heal/``): no wall clock, no module-level RNG — every draw flows from the
deployment's ``streams.fork("heal")`` seed space.
"""
