"""Dynamic reconfiguration — rewriting a live deployment's target topology.

The paper's experiment (iii) demonstrates the "ability to dynamically
reconfigure in presence of evolving needs": the assembly is rewritten while
the system runs, and the self-organizing layers converge to the new target
without restarting any node.

Mechanics: the new assembly's assignment rule is run over the live
population with no previous map — a fresh cut, exactly what a deploy of the
new assembly would deal (a rebalance, by contrast, keeps survivors in their
component); every node whose role changes adopts a new profile — UO1/UO2
flush entries the new role invalidates, the core protocol is rebuilt for the
(possibly different) shape, ports re-propose and links re-bind. Global state
that stays valid (the peer-sampling views, same-component contacts that
remain same-component) is *kept*, which is why re-convergence is faster than
a cold start.
"""

from __future__ import annotations

from repro.core.assembly import Assembly
from repro.core.convergence import ConvergenceReport
from repro.core.runtime import Deployment


def reconfigure(deployment: Deployment, new_assembly: Assembly) -> None:
    """Switch ``deployment`` to ``new_assembly`` in place.

    The convergence tracker is reset, so a subsequent
    :meth:`~repro.core.runtime.Deployment.run_until_converged` measures
    re-convergence from the moment of the switch.
    """
    new_assembly.validate()
    # Compute the new role map before touching the deployment, so a failing
    # assignment (e.g. more components than live nodes) leaves it intact.
    new_map = new_assembly.assign_roles(deployment.network.alive_ids())
    old_assembly = deployment.assembly
    deployment.assembly = new_assembly
    deployment.runtime.assembly = new_assembly
    # Passing the old assembly lets unchanged-role nodes detect that their
    # component's declaration (shape, ports, links) changed around them.
    deployment._apply_role_changes(new_map, old_assembly=old_assembly)
    deployment.tracker.reset()


def reconfigure_and_measure(
    deployment: Deployment, new_assembly: Assembly, max_rounds: int = 120
) -> ConvergenceReport:
    """Apply :func:`reconfigure` and run until the new target is reached."""
    reconfigure(deployment, new_assembly)
    return deployment.run_until_converged(max_rounds)
