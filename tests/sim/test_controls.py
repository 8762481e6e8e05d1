"""Tests for controls and observers."""

from __future__ import annotations

from repro.sim.controls import CallbackControl, ScheduledControl
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.rng import RandomStreams


class TestCallbackControl:
    def test_invoked_each_round(self):
        calls = []
        net = Network()
        net.create_node()
        control = CallbackControl(lambda network, rnd: calls.append(rnd))
        Engine(net, streams=RandomStreams(1), controls=[control]).run(3)
        assert calls == [0, 1, 2]


class TestScheduledControl:
    def test_fires_exactly_once_at_round(self):
        calls = []
        net = Network()
        net.create_node()
        control = ScheduledControl(2, lambda network, rnd: calls.append(rnd))
        Engine(net, streams=RandomStreams(1), controls=[control]).run(5)
        assert calls == [2]
        assert control.fired

    def test_fires_late_if_round_already_passed(self):
        calls = []
        net = Network()
        net.create_node()
        control = ScheduledControl(0, lambda network, rnd: calls.append(rnd))
        engine = Engine(net, streams=RandomStreams(1), controls=[])
        engine.run(2)
        engine.add_control(control)
        engine.run(1)
        assert calls == [2]
