"""Tests for the self-healing verification machinery."""

from __future__ import annotations

from repro.faults.transports import FaultEvent, FaultTransport
from repro.gossip.views import PartialView
from repro.obs.recovery import EventRecovery, dead_descriptor_fraction, recovery_report
from repro.sim.network import Network
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport


def make_faults():
    return FaultTransport(Transport(), RandomStreams(0))


def run_script(faults, script):
    """The report on a scripted verdict series, one observation a round."""
    n_rounds = len(next(iter(script.values())))
    return recovery_report(faults.events, range(n_rounds), script)


class TestEventRecovery:
    def test_repaired(self):
        recovery = EventRecovery(
            event=FaultEvent(3, "heal"),
            repair_rounds={"core": 4, "uo1": 9},
        )
        assert recovery.repaired

    def test_unrepaired(self):
        recovery = EventRecovery(
            event=FaultEvent(3, "heal"),
            repair_rounds={"core": 4, "uo1": None},
        )
        assert not recovery.repaired


class TestRecoveryReport:
    def make_report(self):
        faults = make_faults()
        faults.record_event(2, "partition")
        faults.record_event(5, "heal")
        #          round:  0     1     2      3      4     5      6     7
        script = {
            "core": [True, True, False, False, True, False, False, True],
            "uo1":  [True, True, False, True,  True, False, True,  True],
        }
        return run_script(faults, script)

    def test_time_to_repair_relative_to_event(self):
        report = self.make_report()
        # After the partition at r2: core first True at r4, uo1 at r3.
        assert report.recovery_for("partition").repair_rounds == {"core": 2, "uo1": 1}
        # After the heal at r5: core at r7, uo1 at r6.
        assert report.recovery_for("heal").repair_rounds == {"core": 2, "uo1": 1}
        assert report.recovery_for("nope") is None

    def test_partition_merge_is_slowest_of_uo1_and_core(self):
        report = self.make_report()
        assert report.partition_merge_rounds == 2

    def test_healed_is_final_state(self):
        report = self.make_report()
        assert report.healed
        assert report.final_converged == {"core": True, "uo1": True}

    def test_never_repaired_layer(self):
        faults = make_faults()
        faults.record_event(0, "heal")
        report = run_script(
            faults, {"core": [False, False, False], "uo1": [True, True, True]}
        )
        assert report.recovery_for("heal").repair_rounds["core"] is None
        assert report.partition_merge_rounds is None
        assert not report.healed
        assert not report.recoveries[0].repaired

    def test_render_mentions_events_and_final_state(self):
        rendered = self.make_report().render()
        assert "time-to-repair" in rendered
        assert "r5 heal" in rendered
        assert "core=ok" in rendered
        assert "partition merge" in rendered
        unhealed = run_script(
            make_faults(), {"core": [False], "uo1": [False]}
        ).render()
        assert "NOT CONVERGED" in unhealed


class FakeViewProtocol:
    def __init__(self, peer_ids):
        self.view = PartialView(16)
        self._peers = list(peer_ids)

    def neighbors(self):
        return list(self._peers)


class TestHygieneMetrics:
    def test_dead_descriptor_fraction(self):
        net = Network()
        net.create_nodes(4)
        net.node(0).attach("uo1", FakeViewProtocol([1, 2, 3]))
        net.node(1).attach("uo1", FakeViewProtocol([0]))
        net.kill(3)
        # Live views hold 4 entries total; exactly one (0 -> 3) is dead.
        assert dead_descriptor_fraction(net, layers=["uo1"]) == 0.25

    def test_dead_fraction_empty_network(self):
        assert dead_descriptor_fraction(Network()) == 0.0

