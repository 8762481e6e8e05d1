"""Tests for node-assignment rules and role maps."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AssemblyError, TopologyError
from repro.core.assembly import Assembly
from repro.core.component import ComponentSpec
from repro.core.roles import (
    HashAssignment,
    ProportionalAssignment,
    Role,
    RoleMap,
    SPARE_COMPONENT,
    _component_quotas,
    make_assignment,
)
from repro.shapes import make_shape


def weighted_assembly(weights):
    return Assembly(
        "W",
        [
            ComponentSpec(name=name, shape=make_shape("ring"), weight=weight)
            for name, weight in weights.items()
        ],
    )


def fixed_assembly(sizes):
    return Assembly(
        "F",
        [
            ComponentSpec(name=name, shape=make_shape("ring"), size=size)
            for name, size in sizes.items()
        ],
    )


class TestRoleMap:
    def test_members_ordered_by_rank(self):
        role_map = RoleMap(
            {
                10: Role("a", 1, 2),
                20: Role("a", 0, 2),
                30: Role("b", 0, 1),
            }
        )
        assert role_map.members("a") == [(20, 0), (10, 1)]
        assert role_map.member_ids("a") == [20, 10]
        assert role_map.component_size("a") == 2
        assert role_map.components() == ["a", "b"]
        assert role_map.node_ids() == [10, 20, 30]
        assert len(role_map) == 3

    def test_unknown_node_raises(self):
        with pytest.raises(TopologyError):
            RoleMap({}).role(5)

    def test_has_role(self):
        role_map = RoleMap({1: Role("a", 0, 1)})
        assert role_map.has_role(1)
        assert not role_map.has_role(2)

    def test_spare_flag(self):
        assert Role(SPARE_COMPONENT, 0, 1).is_spare
        assert not Role("a", 0, 1).is_spare


class TestProportionalAssignment:
    def test_exact_split_by_weight(self):
        assembly = weighted_assembly({"a": 3, "b": 1})
        role_map = ProportionalAssignment().assign(range(40), assembly)
        assert role_map.component_size("a") == 30
        assert role_map.component_size("b") == 10

    def test_contiguous_id_slices(self):
        assembly = weighted_assembly({"a": 1, "b": 1})
        role_map = ProportionalAssignment().assign(range(10), assembly)
        assert role_map.member_ids("a") == list(range(5))
        assert role_map.member_ids("b") == list(range(5, 10))

    def test_ranks_contiguous_from_zero(self):
        assembly = weighted_assembly({"a": 2, "b": 1})
        role_map = ProportionalAssignment().assign(range(30), assembly)
        for component in ("a", "b"):
            ranks = [rank for _, rank in role_map.members(component)]
            assert ranks == list(range(len(ranks)))

    def test_fixed_sizes_honored(self):
        assembly = fixed_assembly({"a": 7, "b": 3})
        role_map = ProportionalAssignment().assign(range(10), assembly)
        assert role_map.component_size("a") == 7
        assert role_map.component_size("b") == 3

    def test_surplus_becomes_spares(self):
        assembly = fixed_assembly({"a": 4})
        role_map = ProportionalAssignment().assign(range(10), assembly)
        assert role_map.component_size("a") == 4
        assert role_map.component_size(SPARE_COMPONENT) == 6
        for node_id, _ in role_map.members(SPARE_COMPONENT):
            assert role_map.role(node_id).is_spare

    def test_mixed_fixed_and_weighted(self):
        assembly = Assembly(
            "M",
            [
                ComponentSpec(name="fixed", shape=make_shape("ring"), size=6),
                ComponentSpec(name="flex", shape=make_shape("ring"), weight=1),
            ],
        )
        role_map = ProportionalAssignment().assign(range(20), assembly)
        assert role_map.component_size("fixed") == 6
        assert role_map.component_size("flex") == 14

    def test_degraded_mode_scales_down(self):
        """Fewer live nodes than declared sizes: shrink proportionally."""
        assembly = fixed_assembly({"a": 20, "b": 10})
        role_map = ProportionalAssignment().assign(range(15), assembly)
        assert role_map.component_size("a") + role_map.component_size("b") == 15
        assert role_map.component_size("a") > role_map.component_size("b")

    def test_too_few_nodes_raises(self):
        assembly = weighted_assembly({"a": 1, "b": 1, "c": 1})
        with pytest.raises(AssemblyError):
            ProportionalAssignment().assign(range(2), assembly)

    @settings(max_examples=60, deadline=None)
    @given(
        n_nodes=st.integers(3, 120),
        weights=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6),
    )
    def test_partition_property(self, n_nodes, weights):
        """Every node gets exactly one role; components get >= 1 node each."""
        if n_nodes < len(weights):
            return
        assembly = weighted_assembly(
            {f"c{i}": weight for i, weight in enumerate(weights)}
        )
        role_map = ProportionalAssignment().assign(range(n_nodes), assembly)
        total = sum(
            role_map.component_size(name) for name in assembly.components
        )
        assert total == n_nodes
        assert all(
            role_map.component_size(name) >= 1 for name in assembly.components
        )
        # ranks are a permutation of 0..size-1 per component
        for name in assembly.components:
            ranks = sorted(rank for _, rank in role_map.members(name))
            assert ranks == list(range(role_map.component_size(name)))


class TestHashAssignment:
    def test_quota_respected(self):
        assembly = weighted_assembly({"a": 1, "b": 1})
        role_map = HashAssignment().assign(range(20), assembly)
        assert role_map.component_size("a") == 10
        assert role_map.component_size("b") == 10

    def test_deterministic(self):
        assembly = weighted_assembly({"a": 1, "b": 1})
        first = HashAssignment().assign(range(20), assembly)
        second = HashAssignment().assign(range(20), assembly)
        assert all(first.role(i) == second.role(i) for i in range(20))

    def test_salt_changes_layout(self):
        assembly = weighted_assembly({"a": 1, "b": 1})
        base = HashAssignment(salt=0).assign(range(40), assembly)
        salted = HashAssignment(salt=1).assign(range(40), assembly)
        moved = sum(1 for i in range(40) if base.role(i) != salted.role(i))
        assert moved > 5

    def test_not_contiguous(self):
        assembly = weighted_assembly({"a": 1, "b": 1})
        role_map = HashAssignment().assign(range(40), assembly)
        # Hashing should interleave ids between components.
        a_ids = set(role_map.member_ids("a"))
        assert a_ids != set(range(20))

    def test_join_stability(self):
        """Adding one node must relocate only a bounded number of others."""
        assembly = weighted_assembly({"a": 1, "b": 1})
        before = HashAssignment().assign(range(40), assembly)
        after = HashAssignment().assign(range(41), assembly)
        moved_component = sum(
            1
            for i in range(40)
            if before.role(i).component != after.role(i).component
        )
        assert moved_component <= 3

    def test_equality_by_salt(self):
        assert HashAssignment(1) == HashAssignment(1)
        assert HashAssignment(1) != HashAssignment(2)


RULES = [ProportionalAssignment(), HashAssignment(), HashAssignment(salt=3)]


def mixed_assembly():
    return Assembly(
        "S",
        [
            ComponentSpec(name="fixed", shape=make_shape("ring"), size=7),
            ComponentSpec(name="big", shape=make_shape("ring"), weight=2),
            ComponentSpec(name="small", shape=make_shape("ring"), weight=1),
        ],
    )


def spec_assembly(specs):
    """Rings named by ``specs``' keys: a value below 5 is a weight (+1),
    otherwise a fixed size."""
    return Assembly(
        "X",
        [
            ComponentSpec(name=name, shape=make_shape("ring"), weight=spec + 1)
            if spec < 5
            else ComponentSpec(name=name, shape=make_shape("ring"), size=spec)
            for name, spec in specs.items()
        ],
    )


def component_moves(previous, current, assembly):
    """Live nodes that left a component the assembly still declares."""
    return sum(
        1
        for node_id in current.node_ids()
        if previous.has_role(node_id)
        and previous.role(node_id).component in assembly.components
        and previous.role(node_id).component != current.role(node_id).component
    )


def check_sticky(rule, assembly, previous, live):
    """Every property the sticky cut promises, for one (previous, live)."""
    current = rule.assign(live, assembly, previous)
    population = set(live)
    assert current.node_ids() == sorted(population)
    quotas = _component_quotas(len(population), assembly)
    overflow = 0
    for name, quota in quotas.items():
        assert current.component_size(name) == quota
        kept = [n for n in previous.member_ids(name) if n in population]
        overflow += max(0, len(kept) - quota)
        members = current.members(name)
        assert [rank for _, rank in members] == list(range(quota))
        assert all(current.role(n) == Role(name, rank, quota) for n, rank in members)
        # Kept members lead, in their old rank order; newcomers follow.
        assert current.member_ids(name)[: len(kept)] == kept[:quota]
    assert component_moves(previous, current, assembly) == overflow
    spares = [rank for _, rank in current.members(SPARE_COMPONENT)]
    assert spares == list(range(len(spares)))
    return current


class TestStickyAssignment:
    @pytest.mark.parametrize("rule", RULES, ids=repr)
    def test_no_previous_map_is_the_plain_cut(self, rule):
        assembly = mixed_assembly()
        for population in (range(10), range(30), range(5, 64, 2)):
            plain = rule.assign(population, assembly)
            for previous in (None, RoleMap({})):
                again = rule.assign(population, assembly, previous)
                assert {n: again.role(n) for n in population} == {
                    n: plain.role(n) for n in population
                }

    @pytest.mark.parametrize("rule", RULES, ids=repr)
    def test_quotas_match_assign(self, rule):
        assembly = mixed_assembly()
        previous = rule.assign(range(40), assembly)
        current = rule.assign(range(3, 40, 2), assembly, previous)
        quotas = _component_quotas(len(range(3, 40, 2)), assembly)
        for name in assembly.components:
            assert current.component_size(name) == quotas[name]

    @pytest.mark.parametrize("rule", RULES, ids=repr)
    def test_unchanged_population_moves_nothing(self, rule):
        assembly = mixed_assembly()
        previous = rule.assign(range(40), assembly)
        current = rule.assign(range(40), assembly, previous)
        assert all(current.role(n) == previous.role(n) for n in range(40))

    def test_survivors_keep_their_component(self):
        """The failure-wave case: only the overflow of the components that
        lost fewer members than the average moves."""
        assembly = weighted_assembly({"a": 1, "b": 1, "c": 1})
        rule = ProportionalAssignment()
        previous = rule.assign(range(30), assembly)  # a: 0-9, b: 10-19, c: 20-29
        live = [n for n in range(30) if n not in {10, 11, 12, 13, 14, 15}]
        current = check_sticky(rule, assembly, previous, live)
        assert current.member_ids("a") == list(range(8))
        assert current.member_ids("b") == [16, 17, 18, 19, 8, 9, 28, 29]
        assert current.member_ids("c") == list(range(20, 28))
        assert component_moves(previous, current, assembly) == 4

    def test_spares_and_joiners_fill_deficits_in_rule_order(self):
        assembly = fixed_assembly({"a": 4, "b": 4})
        rule = ProportionalAssignment()
        previous = rule.assign(range(10), assembly)  # spares 8, 9
        current = check_sticky(rule, assembly, previous, [0, 1, 2, 4, 5, 8, 9, 10])
        assert current.member_ids("a") == [0, 1, 2, 8]
        assert current.member_ids("b") == [4, 5, 9, 10]
        assert current.component_size(SPARE_COMPONENT) == 0

    @settings(max_examples=80, deadline=None)
    @given(
        rule_index=st.integers(0, len(RULES) - 1),
        population=st.integers(12, 60),
        components=st.lists(
            st.sampled_from(["fixed", "big", "small", "gone", SPARE_COMPONENT]),
            min_size=70,
            max_size=70,
        ),
        ranks=st.permutations(range(70)),
        kills=st.sets(st.integers(0, 69), max_size=40),
        joiners=st.integers(0, 10),
    )
    def test_sticky_properties(self, rule_index, population, components, ranks, kills, joiners):
        """Over random previous maps (any components, any ranks, gaps and
        all) and random kill sets plus joiners."""
        assembly = mixed_assembly()
        previous = RoleMap(
            {
                node_id: Role(components[node_id], ranks[node_id], 1)
                for node_id in range(population)
            }
        )
        live = [n for n in range(population) if n not in kills]
        live += range(100, 100 + joiners)
        if len(live) < len(assembly.components):
            return
        check_sticky(RULES[rule_index], assembly, previous, live)

    @settings(max_examples=80, deadline=None)
    @given(
        rule_index=st.integers(0, len(RULES) - 1),
        population=st.integers(12, 60),
        old=st.dictionaries(st.sampled_from("abcde"), st.integers(0, 9), min_size=1, max_size=4),
        new=st.dictionaries(st.sampled_from("abcde"), st.integers(0, 9), min_size=1, max_size=4),
        disjoint=st.booleans(),
        kills=st.sets(st.integers(0, 59), max_size=30),
        joiners=st.integers(0, 10),
    )
    def test_changed_assembly_properties(
        self, rule_index, population, old, new, disjoint, kills, joiners
    ):
        """A rebalance onto another assembly: survivors of a component both
        declare keep it up to the new quota; with no shared name the
        result is the fresh cut a deploy of the new assembly would deal."""
        rule = RULES[rule_index]
        if disjoint:
            new = {name.upper(): spec for name, spec in new.items()}
        old_assembly, new_assembly = spec_assembly(old), spec_assembly(new)
        previous = rule.assign(range(population), old_assembly)
        live = [n for n in range(population) if n not in kills]
        live += range(100, 100 + joiners)
        if len(live) < len(new_assembly.components):
            return
        current = check_sticky(rule, new_assembly, previous, live)
        if not set(old) & set(new):
            fresh = rule.assign(live, new_assembly)
            assert all(current.role(n) == fresh.role(n) for n in live)


class TestMakeAssignment:
    def test_known_rules(self):
        assert isinstance(make_assignment("proportional"), ProportionalAssignment)
        assert isinstance(make_assignment("hash"), HashAssignment)

    def test_unknown_rule(self):
        with pytest.raises(AssemblyError, match="unknown assignment rule"):
            make_assignment("alphabetical")
