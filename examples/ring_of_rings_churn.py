#!/usr/bin/env python3
"""Ring of rings under churn and catastrophic failure.

The paper argues the runtime should make node volatility transparent:
"developers should not have to worry about nodes failing, leaving or joining
the system (a common occurrence in public clouds)". This example stresses
that claim on the Ring-of-Rings topology of the paper's experiment (ii):

1. converge a super-ring of 8 rings (128 nodes);
2. run continuous churn — 1% of nodes crash per round, replaced by joiners —
   and watch the core layer's health score stay high;
3. kill 40% of the population at once (the catastrophic scenario of the
   Polystyrene work the paper cites) and watch the assembly shrink, heal,
   and return to a fully realized shape.

Run:  python examples/ring_of_rings_churn.py
"""

from __future__ import annotations

from repro import Runtime
from repro.core.convergence import core_score
from repro.experiments.topologies import ring_of_rings
from repro.faults.schedule import catastrophic_failure, random_churn


def health(deployment) -> float:
    return core_score(
        deployment.network, deployment.role_map, deployment.assembly
    )


def main() -> None:
    assembly = ring_of_rings(n_rings=8, ring_size=16)
    deployment = Runtime(assembly, seed=11).deploy()
    report = deployment.run_until_converged(max_rounds=80)
    print(f"initial convergence: {report.slowest} rounds, health {health(deployment):.2f}")

    # -- phase 1: continuous churn ------------------------------------------
    start = deployment.engine.round
    churn = random_churn(
        deployment,
        deployment.streams.fork("churn").stream("crash"),
        crash_rate=0.01,
        join_count=1,
        min_population=96,
        at_round=start,
        until_round=start + 20,
    )
    churn.arm(deployment)
    print("\n20 rounds of continuous churn (1% crash rate, 1 join/round):")
    for _ in range(4):
        deployment.run(5)
        print(
            f"  round {deployment.engine.round:>3}: "
            f"{deployment.network.alive_count()} live nodes, "
            f"core health {health(deployment):.2f}"
        )

    # -- phase 2: catastrophic failure ---------------------------------------
    catastrophe = catastrophic_failure(
        deployment,
        deployment.streams.fork("catastrophe").stream("kill"),
        at_round=deployment.engine.round,
        fraction=0.4,
    )
    catastrophe.arm(deployment)
    deployment.run(1)
    (kill,) = catastrophe
    print(f"\ncatastrophe: killed {len(kill.args[0])} nodes at once")
    deployment.rebalance()  # survivors and spares take over vacated ranks
    print(f"  after rebalance: health {health(deployment):.2f} "
          f"({deployment.network.alive_count()} live nodes)")
    for _ in range(4):
        deployment.run(5)
        print(f"  +5 rounds: health {health(deployment):.2f}")
    print(f"\nfinal: shape fully healed = {health(deployment) == 1.0}")


if __name__ == "__main__":
    main()
