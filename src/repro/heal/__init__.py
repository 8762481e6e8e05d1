"""repro.heal — autonomic self-healing: observe → decide → act, closed.

The observability subsystem watches (collector, health rules); this package
*acts*: a :class:`~repro.heal.engine.RemediationEngine` subscribes to
health-alert transitions and runs the one action mapped to each typed
alert, with deterministic backoff between attempts; an incident its action
cannot close in three attempts is marked ``unrecoverable``. The
adversarial harness and the scenario catalogue quantify the loop:
corrupted-state starts, managed vs unmanaged, time-to-stabilize. The
catalogue (:mod:`~repro.heal.scenarios`) also holds the fault rows behind
``python -m repro faults``: every scenario is one row of one table.

Everything here obeys the determinism discipline (the DET linter covers
``heal/``): no wall clock, no module-level RNG — every draw flows from the
deployment's ``streams.fork("heal")`` seed space.
"""
