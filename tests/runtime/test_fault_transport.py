"""The fault decorator: accounting, stacking and the golden fault schedule.

The headline regression: a mixed partition/loss/latency schedule driven
through :class:`~repro.faults.transports.FaultTransport` must reproduce the
overlay digests and drop/delay accounting recorded from the engine-side
fault plane this decorator replaced — the ``("linkfaults", layer, node)``
streams are drawn in the same order. The schedule's per-node and per-pair
faults are zone-pair rules over one zone per node, the only link rule the
decorator has.
"""

from __future__ import annotations

import pytest

from repro.core.layers import RUNTIME_LAYERS
from repro.errors import ConfigurationError
from repro.faults.transports import FaultTransport, LinkQuality
from repro.faults.zones import ZoneMap
from repro.heal.scenarios import standard_deployment
from repro.perf.digest import overlay_digest
from repro.runtime.loopback import LoopbackTransport
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport, TransportDecorator


def one_zone_per_node(ids):
    """A zone map giving every id its own zone, ``n<id>``."""
    return ZoneMap.round_robin(ids, [f"n{nid}" for nid in sorted(ids)])


def node_rule(quality, node=1, ids=range(4)):
    """A FaultTransport over a plain ledger degrading every link of
    ``node`` (a one-node zone)."""
    inner = Transport()
    transport = FaultTransport(inner, RandomStreams(42), one_zone_per_node(ids))
    for other in ids:
        transport.set_link(f"n{node}", f"n{other}", quality)
    return inner, transport


class TestDecoratorUnits:
    def test_loss_drops_and_accounts(self):
        # The unit calls pass no context: the source id is -1, whose zone
        # (-1 % 4 -> "n3") the rule of node 1 covers.
        inner, transport = node_rule(LinkQuality(loss=0.5))
        outcomes = [transport.deliverable(None, dst=1, layer="x") for _ in range(200)]
        dropped = outcomes.count(False)
        assert 50 < dropped < 150  # memoryless coin at 0.5
        assert inner.drop_reasons() == {"loss": dropped}

    def test_zero_loss_draws_nothing(self):
        class Exploding(RandomStreams):
            def stream(self, *names):  # pragma: no cover - must not be called
                raise AssertionError("an idle fault transport must not draw")

        transport = FaultTransport(Transport(), Exploding(1))
        assert transport.deliverable(None, dst=1) is True
        # A latency-only rule draws nothing either.
        transport.zones = one_zone_per_node(range(4))
        transport.set_link("n1", "n3", LinkQuality(latency=0.4))
        assert transport.deliverable(None, dst=1) is True

    def test_latency_below_timeout_delays(self):
        inner, transport = node_rule(LinkQuality(latency=0.4))
        assert transport.deliverable(None, dst=1, layer="x") is True
        assert inner.total_delayed("x") == 1
        assert inner.mean_extra_latency("x") == pytest.approx(0.4)

    def test_latency_at_timeout_drops(self):
        inner, transport = node_rule(LinkQuality(latency=1.0))
        assert transport.deliverable(None, dst=1, layer="x") is False
        assert inner.drop_reasons() == {"timeout": 1}

    def test_decorators_stack_and_unwrap(self):
        inner = Transport()
        stacked = FaultTransport(LoopbackTransport(inner), RandomStreams(1))
        assert stacked.inner.inner is inner
        assert isinstance(stacked.inner, TransportDecorator)
        # accounting queries resolve through __getattr__ to the real ledger
        stacked.record_message("x", 3)
        assert inner.total_messages("x") == 1

    def test_accounting_lands_on_shared_ledger(self):
        inner = Transport()
        outer = FaultTransport(
            LoopbackTransport(inner), RandomStreams(1), one_zone_per_node(range(4))
        )
        outer.set_link("n2", "n3", LinkQuality(latency=1.5))
        outer.deliverable(None, dst=2, layer="uo1")
        assert outer.total_dropped("uo1") == 1  # read through the decorators
        assert inner.drop_reasons() == {"timeout": 1}

    def test_install_faults_one_decorator_ever(self):
        deployment = standard_deployment(32, seed=1)
        first = deployment.install_faults()
        assert isinstance(first, FaultTransport)
        assert deployment.engine.transport is first is deployment.faults
        assert not isinstance(first.inner, FaultTransport)
        assert deployment.install_faults() is first  # one decorator, ever
        assert deployment.engine.transport is first

    def test_install_faults_rejects_a_second_zone_map(self):
        deployment = standard_deployment(32, seed=1)
        zones = one_zone_per_node(deployment.network.node_ids())
        faults = deployment.install_faults(zones)
        assert faults.zones is zones
        assert deployment.install_faults(zones) is faults
        with pytest.raises(ConfigurationError):
            deployment.install_faults(one_zone_per_node(range(4)))


def run_fault_schedule(seed: int):
    """The mixed partition→links schedule through ``install_faults``.

    Every node is a one-node zone, so "every link of node a" is the zone
    pairs ``(a, x)`` for every x, and "the link a -- b" is one zone pair.
    """
    deployment = standard_deployment(32, seed)
    deployment.run_until_converged(120)
    ids = sorted(deployment.network.alive_ids())
    faults = deployment.install_faults(one_zone_per_node(ids))
    half = len(ids) // 2
    faults.set_partition(
        {nid: (0 if i < half else 1) for i, nid in enumerate(ids)}
    )
    deployment.run(8)
    faults.clear_partition()
    zone = {nid: f"n{nid}" for nid in ids}
    for other in ids:
        faults.set_link(zone[ids[0]], zone[other], LinkQuality(loss=0.5, latency=0.0))
    faults.set_link(zone[ids[1]], zone[ids[2]], LinkQuality(loss=0.0, latency=1.5))
    faults.set_link(zone[ids[3]], zone[ids[4]], LinkQuality(loss=0.0, latency=0.4))
    deployment.run(8)
    faults.links.clear()
    deployment.run(8)
    return {
        "digest": overlay_digest(deployment.network, RUNTIME_LAYERS),
        "drop_reasons": dict(deployment.transport.drop_reasons()),
        "total_dropped": deployment.transport.total_dropped(),
        "total_delayed": deployment.transport.total_delayed(),
    }


#: First recorded from the deleted ``engine.faults`` path (commit 128d0e4)
#: for this schedule; every fault mode is exercised (three drop reasons +
#: delays). Re-pinned when UO2 began feeding UO1 and the core began
#: bootstrapping from it: the run that precedes the schedule converges along
#: a different trajectory, so which exchanges meet the cut moved with it (the
#: fault plane itself is untouched: same three reasons, same orders of
#: magnitude — 384 / 368 dropped before). Re-pinned again, for the same
#: reason, when UO1 / UO2 requests began to carry a have-digest (389 / 352
#: dropped before). Re-pinned a third time when a port manager began to
#: gossip across its own link every round (and port selection to seed from
#: its sibling views): the preceding run is shorter, and a manager's
#: exchange now crosses the component boundary — hence, half the time, the
#: partition cut — on every round instead of every other one (368 / 350
#: dropped before, of which partition 298 / 284). Re-pinned a fourth time
#: when the core and UO2 began handing every sighting to a UO1 whose view can
#: list its component (these rings of 8 fit): the preceding run is a round
#: shorter and UO1 views fill earlier, so the partner draws that meet the cut
#: and the degraded links differ (405 / 389 dropped before, of which
#: partition 329 / 326). Re-pinned a fifth time when a refused exchange
#: stopped forgetting a partner the transport still calls reachable: the
#: partition phase is unchanged (a cut partner is unreachable and still
#: forgotten, 318 / 334), but in the link phase a node keeps the partner a
#: lossy or timed-out link refused and retries it, so it meets the degraded
#: links more often (397 / 398 dropped before, of which loss 67 / 59 and
#: timeout 12 / 5; delayed 2 / 10). Re-pinned a sixth time, seed 1 only,
#: when a Vicinity reply began skipping the ids its request shipped: a
#: different core trajectory, so the partner draws that meet the cut and
#: the degraded links differ (partition 318 -> 317, timeout 14 -> 15; 409
#: dropped either way). Seed 7 did not move.
GOLDEN = {
    1: {
        "digest": "031577f7a9e2e0bf77d74fbf39beb8f56bc665f6426e03e8be3290bafb4dee77",
        "drop_reasons": {"loss": 77, "partition": 317, "timeout": 15},
        "total_dropped": 409,
        "total_delayed": 7,
    },
    7: {
        "digest": "bf197fed08a796eaf27487f7ef9846b794fec4209bb708d81bcd56c5a01aab30",
        "drop_reasons": {"loss": 65, "partition": 334, "timeout": 10},
        "total_dropped": 409,
        "total_delayed": 9,
    },
}


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 7])
def test_fault_schedule_reproduces_golden(seed):
    assert run_fault_schedule(seed) == GOLDEN[seed]
