"""Tests for the shape registry (the DSL's component-library hook)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.shapes import available_shapes, make_shape, register_shape
from repro.shapes import registry
from repro.shapes.base import Shape
from repro.shapes.ring import Ring


class TestLookup:
    def test_all_builtins_registered(self):
        names = available_shapes()
        for expected in (
            "ring",
            "line",
            "star",
            "clique",
            "grid",
            "torus",
            "tree",
            "hypercube",
            "random",
        ):
            assert expected in names

    def test_make_shape_returns_instance(self):
        assert isinstance(make_shape("ring"), Ring)

    def test_unknown_shape_lists_known(self):
        with pytest.raises(ConfigurationError, match="ring"):
            make_shape("dodecahedron")

    def test_params_forwarded(self):
        assert make_shape("grid", rows=2).rows == 2

    def test_bad_params_reported(self):
        with pytest.raises(ConfigurationError, match="grid"):
            make_shape("grid", bogus=1)


class TestRegistration:
    @pytest.fixture(autouse=True)
    def _drop_registrations(self):
        """The registry is process-wide: remove what a test registered, so
        a later module's ``available_shapes()`` lists the built-ins alone."""
        builtins = set(available_shapes())
        yield
        for name in set(available_shapes()) - builtins:
            del registry._REGISTRY[name]

    def test_register_custom_shape(self):
        class Pair(Shape):
            name = "pair_test_shape"

            def metric(self, size):
                return lambda a, b: float(abs(a - b))

            def target_neighbors(self, rank, size):
                partner = rank ^ 1
                return frozenset({partner} if partner < size else set())

        register_shape("pair_test_shape", Pair)
        shape = make_shape("pair_test_shape")
        assert shape.target_neighbors(0, 4) == {1}
        assert "pair_test_shape" in available_shapes()

    def test_register_rejects_bad_names(self):
        with pytest.raises(ConfigurationError):
            register_shape("not a name", Ring)
        with pytest.raises(ConfigurationError):
            register_shape("", Ring)

    def test_reregistration_overrides(self):
        register_shape("override_test", Ring)
        register_shape("override_test", lambda: make_shape("line"))
        assert make_shape("override_test").name == "line"
