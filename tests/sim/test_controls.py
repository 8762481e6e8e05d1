"""Tests for the engine's scheduled control: the executor of a fault schedule."""

from __future__ import annotations

from repro import Runtime
from repro.experiments.topologies import ring_of_rings
from repro.faults.schedule import FaultSchedule


class TestScheduledControl:
    """A schedule's executor fires each event once, at the start of its round."""

    def deployment(self):
        return Runtime(ring_of_rings(n_rings=2, ring_size=4), seed=1).deploy(12)

    def test_fires_exactly_once_at_round(self):
        deployment = self.deployment()
        schedule = FaultSchedule([(2, "kill", ((3,),)), (2, "join", (1,))])
        executor = schedule.arm(deployment)
        deployment.run(2)
        assert deployment.network.is_alive(3) and executor.applied == 0
        deployment.run(3)
        assert not deployment.network.is_alive(3)
        assert deployment.network.size() == 13  # one join, not three
        assert executor.applied == 2

    def test_fires_late_if_round_already_passed(self):
        deployment = self.deployment()
        deployment.run(2)
        FaultSchedule([(0, "kill", ((3, 4),))]).arm(deployment)
        deployment.run(1)
        assert deployment.network.alive_count() == 10
