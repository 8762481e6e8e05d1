"""Tests for simulated nodes and protocol stacks."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.node import Node
from repro.sim.protocol import Protocol


class StubProtocol(Protocol):
    def __init__(self, tag=""):
        self.tag = tag
        self.steps = 0

    def step(self, ctx):
        self.steps += 1

    def neighbors(self):
        return [1, 2]


class TestNodeLiveness:
    def test_starts_alive(self):
        assert Node(0).alive

    def test_kill_and_revive(self):
        node = Node(0)
        node.kill()
        assert not node.alive
        node.revive()
        assert node.alive

    def test_kill_preserves_state(self):
        node = Node(0)
        node.attach("p", StubProtocol("keep"))
        node.kill()
        assert node.protocol("p").tag == "keep"


class TestProtocolStack:
    def test_attach_and_get(self):
        node = Node(3)
        protocol = StubProtocol()
        assert node.attach("ps", protocol) is protocol
        assert node.protocol("ps") is protocol

    def test_attach_duplicate_raises(self):
        node = Node(0)
        node.attach("ps", StubProtocol())
        with pytest.raises(SimulationError):
            node.attach("ps", StubProtocol())

    def test_missing_protocol_raises_with_stack_info(self):
        node = Node(0)
        node.attach("only", StubProtocol())
        with pytest.raises(SimulationError, match="only"):
            node.protocol("absent")

    def test_has_protocol(self):
        node = Node(0)
        assert not node.has_protocol("x")
        node.attach("x", StubProtocol())
        assert node.has_protocol("x")

    def test_stack_preserves_attach_order(self):
        node = Node(0)
        for name in ("c", "a", "b"):
            node.attach(name, StubProtocol(name))
        assert [name for name, _ in node.stack()] == ["c", "a", "b"]

    def test_replace_keeps_position(self):
        node = Node(0)
        node.attach("a", StubProtocol("old_a"))
        node.attach("b", StubProtocol("b"))
        replacement = StubProtocol("new_a")
        node.replace("a", replacement)
        assert node.protocol("a") is replacement
        assert [name for name, _ in node.stack()] == ["a", "b"]

    def test_replace_missing_raises(self):
        with pytest.raises(SimulationError):
            Node(0).replace("nope", StubProtocol())

    def test_default_protocol_hooks(self):
        """Protocol base class must provide safe no-op hooks."""
        protocol = StubProtocol()
        protocol.forget(5)
        protocol.on_join(None)
        assert list(Protocol.neighbors(protocol)) == []

    def test_attributes_dict(self):
        node = Node(0)
        node.attributes["role"] = "anything"
        assert node.attributes["role"] == "anything"
