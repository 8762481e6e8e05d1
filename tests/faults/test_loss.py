"""Message loss on the fault plane: one all-pairs ``LinkQuality(loss=p)`` rule.

Loss has one model: a :class:`~repro.faults.transports.FaultTransport` link
rule whose coin is drawn at the ``deliverable`` gate. A lost exchange costs
the layer its turn and nothing else — the partner is still reachable, so it
stays in the view — which is what lets gossip shrug loss off (the paper's
§3.3 resilience claim, ablation A7).
"""

from __future__ import annotations

import pytest

from repro.core import Runtime
from repro.core.layers import RUNTIME_LAYERS
from repro.dsl import TopologyBuilder
from repro.experiments.topologies import ring_of_rings
from repro.faults.transports import FaultTransport, LinkQuality
from repro.faults.zones import ZoneMap
from tests.gossip.helpers import GossipWorld


def lossy(deployment, loss):
    """Every link of ``deployment`` loses ``loss`` of its exchanges."""
    faults = deployment.install_faults(ZoneMap(["all"]))
    faults.set_link("all", "all", LinkQuality(loss=loss))
    return deployment


def lossy_world(n_nodes, seed, loss):
    """A :class:`GossipWorld` whose engine exchanges through a lossy plane;
    its ``transport`` stays the ledger underneath."""
    world = GossipWorld(n_nodes, seed=seed)
    faults = FaultTransport(world.transport, world.streams, ZoneMap(["all"]))
    faults.set_link("all", "all", LinkQuality(loss=loss))
    world.engine.transport = faults
    return world


@pytest.mark.parametrize("seed", [1, 2])
def test_ring_of_rings_converges_at_ten_percent_loss(seed):
    """A7's assembly (8 rings of 16). While a refused exchange also dropped
    the partner, 10 % loss kept UO1 from converging within 120 rounds on
    most seeds: a lost exchange must not undo a legal state (closure)."""
    deployment = lossy(Runtime(ring_of_rings(8, 16), seed=seed).deploy(128), 0.1)
    report = deployment.run_until_converged(120)
    assert report.converged, report.rounds
    assert set(report.rounds) == set(RUNTIME_LAYERS) - {"peer_sampling"}
    assert deployment.transport.drop_reasons()["loss"] > 0


class TestLossyGossip:
    def test_peer_sampling_still_mixes_under_loss(self):
        world = lossy_world(30, seed=3, loss=0.3)
        world.run(12)
        assert world.transport.total_dropped("peer_sampling") > 0
        sizes = [len(world.ps(i).view) for i in range(30)]
        assert min(sizes) >= world.params.view_size - 2

    def test_lost_exchanges_send_fewer_messages(self):
        lossless = GossipWorld(20, seed=5)
        lossless.run(10)
        lossy_run = lossy_world(20, seed=5, loss=0.5)
        lossy_run.run(10)
        assert (
            lossy_run.transport.total_messages("peer_sampling")
            < lossless.transport.total_messages("peer_sampling")
        )


class TestLossyRuntime:
    def test_full_runtime_converges_at_30_percent_loss(self):
        builder = TopologyBuilder("Lossy")
        builder.component("ring", "ring", size=24).port("gate", "lowest_id")
        builder.component("cell", "clique", size=8).port("gate", "lowest_id")
        builder.link(("ring", "gate"), ("cell", "gate"))
        assembly = builder.nodes(32).build()
        deployment = lossy(Runtime(assembly, seed=71).deploy(), 0.3)
        report = deployment.run_until_converged(120)
        assert report.converged, report.rounds

    def test_loss_does_not_speed_convergence(self):
        builder = TopologyBuilder("Slow")
        builder.component("ring", "ring", size=32)
        assembly = builder.nodes(32).build()
        report_fast = Runtime(assembly, seed=72).deploy().run_until_converged(120)
        slow = lossy(Runtime(assembly, seed=72).deploy(), 0.5)
        report_slow = slow.run_until_converged(120)
        assert report_fast.converged and report_slow.converged
        assert report_slow.slowest >= report_fast.slowest
