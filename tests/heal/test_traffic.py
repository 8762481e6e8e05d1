"""The remediation traffic the one-rung engine is sized for.

Every managed corruption row (each mode at degree 0.5 and 1.0) and
``partition-churn``, at 32 nodes on seeds 1 and 7, recovers with the action
mapped to the rule that fired, in at most two attempts. So no incident
needs a second rung, no incident uses up its attempts, and no rule that
fires lacks an action. A run that broke any of these would be the evidence
for bringing an escalation rung back.
"""

from __future__ import annotations

import pytest

from repro.heal.actions import default_actions
from repro.heal.harness import corruption_modes
from repro.heal.scenarios import run_scenario

N_NODES = 32
SEEDS = (1, 7)
DEGREES = (0.5, 1.0)

ROWS = [(mode, degree) for mode in corruption_modes() for degree in DEGREES] + [
    ("partition-churn", None)
]


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("row,degree", ROWS)
def test_managed_run_recovers_on_the_first_rung(row, degree, seed):
    result = run_scenario(row, N_NODES, seed, managed=True, degree=degree)
    assert result.verdict == "recovered"
    mapped = default_actions()
    for incident in result.remediation["incidents"]:
        assert incident["status"] != "unrecoverable", incident
        assert incident["attempts"] <= 2, incident
        assert incident["rule"] in mapped, incident
