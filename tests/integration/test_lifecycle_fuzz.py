"""Stateful fuzzing of the deployment lifecycle.

A hypothesis rule-based state machine drives a live deployment through
arbitrary interleavings of the operations a real operator would perform —
run rounds, crash nodes, revive them, add spares, rebalance, rebalance onto
another assembly (some sharing component names, some not) —
and checks the framework's global invariants after every step:

- the role map always covers exactly the assigned population, with
  contiguous ranks per component;
- every view respects its capacity bound;
- no protocol ever holds its own node as a neighbour;
- the engine keeps executing (no operation sequence wedges a round);
- after churn stops, the system always re-converges.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core import Runtime
from repro.core.roles import SPARE_COMPONENT
from repro.dsl import TopologyBuilder


FLAVORS = ("pair", "trio", "star")


def build_assembly(flavor: str):
    builder = TopologyBuilder("Fuzz")
    if flavor == "pair":
        builder.component("ring", "ring", size=12).port("gate", "lowest_id")
        builder.component("cell", "clique", size=6).port("gate", "lowest_id")
        builder.link(("ring", "gate"), ("cell", "gate"))
    elif flavor == "trio":
        # Shares "ring" and "cell" with "pair": their survivors stay put.
        builder.component("ring", "ring", size=8).port("gate", "lowest_id")
        builder.component("cell", "clique", size=6).port("gate", "lowest_id")
        builder.component("cell2", "clique", size=4).port("gate", "lowest_id")
        builder.link(("ring", "gate"), ("cell", "gate"))
        builder.link(("ring", "gate"), ("cell2", "gate"))
    else:
        builder.component("hub_comp", "star", size=8).port("hub", "hub")
        builder.component("pool", "random", size=10, min_degree=2).port(
            "up", "lowest_id"
        )
        builder.link(("hub_comp", "hub"), ("pool", "up"))
    return builder.build()


class DeploymentLifecycle(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**16))
    def deploy(self, seed):
        self.deployment = Runtime(build_assembly("pair"), seed=seed).deploy(22)
        self.flavor = "pair"

    # -- operations -------------------------------------------------------------

    @rule(rounds=st.integers(1, 5))
    def run_rounds(self, rounds):
        self.deployment.run(rounds)

    @rule(index=st.integers(0, 200))
    def crash_a_node(self, index):
        alive = self.deployment.network.alive_ids()
        if len(alive) <= self.deployment.assembly.min_nodes() + 2:
            return
        self.deployment.network.kill(alive[index % len(alive)])

    @rule(index=st.integers(0, 200))
    def revive_a_node(self, index):
        dead = [
            node_id
            for node_id in self.deployment.network.node_ids()
            if not self.deployment.network.is_alive(node_id)
        ]
        if dead:
            self.deployment.network.revive(dead[index % len(dead)])

    @rule()
    def add_spare(self):
        if self.deployment.network.size() > 40:
            return
        node = self.deployment.network.create_node()
        self.deployment.provisioner()(self.deployment.network, node)

    @rule()
    def rebalance(self):
        self.deployment.rebalance()

    @rule(flavor=st.sampled_from(FLAVORS))
    def rebalance_onto_a_flavor(self, flavor):
        self.flavor = flavor
        self.deployment.rebalance(build_assembly(flavor))

    # -- invariants -----------------------------------------------------------------

    @invariant()
    def roles_partition_their_population(self):
        role_map = self.deployment.role_map
        for component in self.deployment.assembly.components:
            ranks = sorted(rank for _, rank in role_map.members(component))
            assert ranks == list(range(len(ranks))), (
                f"{component}: ranks not contiguous: {ranks}"
            )

    @invariant()
    def views_respect_bounds_and_self_exclusion(self):
        for node in self.deployment.network.nodes():
            ps = node.protocol("peer_sampling")
            assert len(ps.view) <= ps.params.view_size
            assert node.node_id not in ps.view.ids()
            uo1 = node.protocol("uo1")
            assert len(uo1.view) <= uo1.params.view_size
            assert node.node_id not in uo1.view.ids()
            core = node.protocol("core")
            assert node.node_id not in core.neighbors()

    @invariant()
    def spare_accounting_consistent(self):
        role_map = self.deployment.role_map
        for node_id, _rank in role_map.members(SPARE_COMPONENT):
            assert role_map.role(node_id).is_spare

    def teardown(self):
        # Whatever happened, a quiet period must restore convergence.
        if not hasattr(self, "deployment"):
            return
        self.deployment.rebalance()
        self.deployment.tracker.reset()
        report = self.deployment.run_until_converged(100, layers=("core", "uo1", "uo2"))
        assert report.converged, (
            f"post-fuzz healing failed: {report.rounds} "
            f"(flavor {self.flavor}, {self.deployment.network!r})"
        )


DeploymentLifecycle.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None
)
LifecycleTest = DeploymentLifecycle.TestCase
