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

from typing import TYPE_CHECKING

# Heavy imports stay lazy (PEP 562) so `import repro.heal` costs nothing
# until a symbol is touched — same idiom as repro.obs.
_EXPORTS = {
    "BackoffPolicy": "repro.heal.policy",
    "DEFAULT_POLICY": "repro.heal.policy",
    "RemediationAction": "repro.heal.actions",
    "RendezvousReseed": "repro.heal.actions",
    "SelectorReweight": "repro.heal.actions",
    "ElasticAdjust": "repro.heal.actions",
    "TombstonePurge": "repro.heal.actions",
    "ComponentReseed": "repro.heal.actions",
    "default_actions": "repro.heal.actions",
    "overlay_components": "repro.heal.actions",
    "purge_dead": "repro.heal.actions",
    "seed_view": "repro.heal.actions",
    "Incident": "repro.heal.engine",
    "RemediationEngine": "repro.heal.engine",
    "CORRUPTIONS": "repro.heal.harness",
    "corruption_modes": "repro.heal.harness",
    "corrupt_segregated": "repro.heal.harness",
    "corrupt_poisoned": "repro.heal.harness",
    "corrupt_stale": "repro.heal.harness",
    "SCENARIOS": "repro.heal.scenarios",
    "ScenarioResult": "repro.heal.scenarios",
    "run_scenario": "repro.heal.scenarios",
    "run_heal_matrix": "repro.heal.scenarios",
    "write_heal_bench": "repro.heal.scenarios",
    "format_scenario": "repro.heal.scenarios",
    "format_heal_matrix": "repro.heal.scenarios",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from repro.heal.actions import (  # noqa: F401
        ComponentReseed,
        ElasticAdjust,
        RemediationAction,
        RendezvousReseed,
        SelectorReweight,
        TombstonePurge,
        default_actions,
        overlay_components,
        purge_dead,
        seed_view,
    )
    from repro.heal.engine import Incident, RemediationEngine  # noqa: F401
    from repro.heal.harness import (  # noqa: F401
        CORRUPTIONS,
        corrupt_poisoned,
        corrupt_segregated,
        corrupt_stale,
        corruption_modes,
    )
    from repro.heal.policy import BackoffPolicy, DEFAULT_POLICY  # noqa: F401
    from repro.heal.scenarios import (  # noqa: F401
        SCENARIOS,
        ScenarioResult,
        format_heal_matrix,
        format_scenario,
        run_heal_matrix,
        run_scenario,
        write_heal_bench,
    )


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.heal' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for the next access
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
