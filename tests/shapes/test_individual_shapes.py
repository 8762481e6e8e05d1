"""Shape-specific geometry tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.shapes import make_shape
from repro.shapes.grid import grid_dimensions
from repro.shapes.ring import circular_metric
from repro.shapes.star import HUB_RANK
from repro.shapes.tree import _tree_path_length


class TestRing:
    def test_neighbors_wrap(self):
        ring = make_shape("ring")
        assert ring.target_neighbors(0, 8) == {1, 7}
        assert ring.target_neighbors(7, 8) == {6, 0}

    def test_degenerate_sizes(self):
        ring = make_shape("ring")
        assert ring.target_neighbors(0, 1) == frozenset()
        assert ring.target_neighbors(0, 2) == {1}
        assert ring.target_neighbors(0, 3) == {1, 2}

    @settings(max_examples=50, deadline=None)
    @given(size=st.integers(2, 100), a=st.integers(0, 99), b=st.integers(0, 99))
    def test_circular_distance_bounded_by_half(self, size, a, b):
        ring = make_shape("ring")
        metric = ring.metric(size)
        assert metric(a % size, b % size) <= size / 2

    @settings(max_examples=300, deadline=None)
    @given(
        size=st.integers(1, 200),
        a=st.integers(-1000, 1000),
        b=st.integers(-1000, 1000),
        shape=st.sampled_from(["ring", "kring"]),
    )
    def test_circular_metric_is_the_textbook_form(self, size, a, b, shape):
        """Any ints, negative or past ``size``: the same float, bit for bit,
        as ``min(|a - b| mod size, size - |a - b| mod size)``."""
        delta = abs(a - b) % size
        expected = float(min(delta, size - delta))
        # Below the ring's minimum size only the bare metric is defined.
        metric = make_shape(shape).metric(size) if size >= 3 else circular_metric(size)
        got = metric(a, b)
        assert type(got) is float and got == expected

    def test_distance_examples(self):
        metric = make_shape("ring").metric(10)
        assert metric(0, 1) == 1
        assert metric(0, 9) == 1
        assert metric(0, 5) == 5
        assert metric(2, 7) == 5


class TestLine:
    def test_endpoints_have_one_neighbor(self):
        line = make_shape("line")
        assert line.target_neighbors(0, 5) == {1}
        assert line.target_neighbors(4, 5) == {3}
        assert line.target_neighbors(2, 5) == {1, 3}

    def test_distance_is_absolute_difference(self):
        metric = make_shape("line").metric(9)
        assert metric(0, 8) == 8


class TestStar:
    def test_hub_connects_to_all_leaves(self):
        star = make_shape("star")
        assert star.target_neighbors(HUB_RANK, 6) == {1, 2, 3, 4, 5}
        for leaf in range(1, 6):
            assert star.target_neighbors(leaf, 6) == {HUB_RANK}

    def test_metric_prefers_hub(self):
        star = make_shape("star")
        metric = star.metric(6)
        hub = star.coordinate(0, 6)
        leaf_a = star.coordinate(1, 6)
        leaf_b = star.coordinate(2, 6)
        assert metric(hub, leaf_a) < metric(leaf_a, leaf_b)

    def test_view_size_must_hold_all_leaves(self):
        star = make_shape("star")
        assert star.view_size(50, 8) >= 49

    def test_single_node_star(self):
        assert make_shape("star").target_neighbors(0, 1) == frozenset()


class TestClique:
    def test_everyone_adjacent(self):
        clique = make_shape("clique")
        assert clique.target_neighbors(2, 5) == {0, 1, 3, 4}

    def test_uniform_distance(self):
        metric = make_shape("clique").metric(5)
        assert metric(0, 4) == metric(1, 2) == 1.0

    def test_degree(self):
        assert make_shape("clique").degree(7) == 6


class TestGrid:
    def test_dimension_choice_most_square(self):
        assert grid_dimensions(12) == (3, 4)
        assert grid_dimensions(16) == (4, 4)
        assert grid_dimensions(7) == (1, 7)

    def test_explicit_rows(self):
        assert grid_dimensions(12, rows=2) == (2, 6)
        with pytest.raises(TopologyError):
            grid_dimensions(12, rows=5)

    def test_corner_and_center_neighbors(self):
        grid = make_shape("grid")  # 12 -> 3x4
        assert grid.target_neighbors(0, 12) == {1, 4}
        assert grid.target_neighbors(5, 12) == {1, 4, 6, 9}

    def test_manhattan_metric(self):
        grid = make_shape("grid")
        metric = grid.metric(12)
        assert metric(grid.coordinate(0, 12), grid.coordinate(11, 12)) == 5

    def test_degenerate_single_row(self):
        grid = make_shape("grid", rows=1)
        assert grid.target_neighbors(0, 5) == {1}


class TestTorus:
    def test_wraparound_neighbors(self):
        torus = make_shape("torus")  # 12 -> 3x4
        assert torus.target_neighbors(0, 12) == {1, 3, 4, 8}

    def test_wraparound_metric(self):
        torus = make_shape("torus")
        metric = torus.metric(12)
        top_left = torus.coordinate(0, 12)
        bottom_right = torus.coordinate(11, 12)
        assert metric(top_left, bottom_right) == 2  # wraps both dimensions

    def test_degenerate_narrow_torus(self):
        torus = make_shape("torus", rows=1)
        neighbors = torus.target_neighbors(0, 4)
        assert neighbors == {1, 3}  # no self-loop from the 1-high dimension


class TestBinaryTree:
    def test_path_length_examples(self):
        assert _tree_path_length(0, 0) == 0
        assert _tree_path_length(0, 1) == 1
        assert _tree_path_length(1, 2) == 2
        assert _tree_path_length(3, 4) == 2
        assert _tree_path_length(3, 6) == 4

    def test_parent_child_relation(self):
        tree = make_shape("tree")
        assert tree.target_neighbors(0, 7) == {1, 2}
        assert tree.target_neighbors(1, 7) == {0, 3, 4}
        assert tree.target_neighbors(6, 7) == {2}

    def test_incomplete_tree(self):
        tree = make_shape("tree")
        assert tree.target_neighbors(1, 4) == {0, 3}

    @settings(max_examples=50, deadline=None)
    @given(a=st.integers(0, 200), b=st.integers(0, 200))
    def test_path_length_symmetric(self, a, b):
        assert _tree_path_length(a, b) == _tree_path_length(b, a)

    @settings(max_examples=50, deadline=None)
    @given(a=st.integers(0, 200))
    def test_parent_distance_is_one(self, a):
        if a > 0:
            assert _tree_path_length(a, (a - 1) // 2) == 1


class TestHypercube:
    def test_size_must_be_power_of_two(self):
        cube = make_shape("hypercube")
        with pytest.raises(TopologyError):
            cube.target_neighbors(0, 6)
        cube.validate_size(8)

    def test_neighbors_differ_in_one_bit(self):
        cube = make_shape("hypercube")
        assert cube.target_neighbors(0, 8) == {1, 2, 4}
        assert cube.target_neighbors(5, 8) == {4, 7, 1}

    def test_hamming_metric(self):
        metric = make_shape("hypercube").metric(16)
        assert metric(0b0000, 0b1111) == 4
        assert metric(0b1010, 0b1000) == 1

    def test_degree_is_log2(self):
        assert make_shape("hypercube").degree(16) == 4


class TestRandomGraph:
    def test_no_target_edges(self):
        random_graph = make_shape("random", min_degree=3)
        assert random_graph.target_neighbors(0, 10) == frozenset()
        assert random_graph.target_edges(10) == set()

    def test_convergence_by_min_degree(self):
        random_graph = make_shape("random", min_degree=2)
        sparse = {rank: [(rank + 1) % 6] for rank in range(6)}
        dense = {rank: [(rank + 1) % 6, (rank + 2) % 6] for rank in range(6)}
        assert not random_graph.converged(sparse, 6)
        assert random_graph.converged(dense, 6)

    def test_min_degree_clipped_by_size(self):
        random_graph = make_shape("random", min_degree=5)
        tiny = {0: [1], 1: [0]}
        assert random_graph.converged(tiny, 2)

    def test_negative_min_degree_rejected(self):
        with pytest.raises(TopologyError):
            make_shape("random", min_degree=-1)
