"""The digest gate: a run over the loopback decorator is byte-identical.

Every exchange over :class:`LoopbackTransport` round-trips its request and
reply through the wire codec; if the codec loses anything (a tuple collapsed to a
list, a descriptor field dropped) the overlays diverge and the digests
differ. Equality here is what licenses trusting the same codec under the
UDP runtime, where divergence would look like mysterious overlay noise.
"""

from __future__ import annotations

import pytest

from repro.perf.digest import overlay_digest
from repro.runtime.api import OVERLAY_LAYER, PS_LAYER, RunnerConfig, make_runner
from repro.runtime.loopback import LoopbackTransport
from repro.sim.transport import Transport


def digest_for(wired: bool, shape: str, n_nodes: int, seed: int, rounds: int):
    config = RunnerConfig(kind="round", shape=shape, n_nodes=n_nodes, seed=seed)
    transport = Transport(config.costs)
    runner = make_runner(
        config, transport=LoopbackTransport(transport) if wired else transport
    )
    runner.run(rounds)
    return (
        overlay_digest(runner.network, [PS_LAYER, OVERLAY_LAYER]),
        runner.transport,
    )


def test_digest_gate_small_ring():
    plain, _ = digest_for(False, "ring", 16, seed=3, rounds=20)
    wired, transport = digest_for(True, "ring", 16, seed=3, rounds=20)
    assert wired == plain
    assert transport.wire_frames > 0
    assert transport.wire_bytes > transport.wire_frames  # frames are non-empty


@pytest.mark.slow
@pytest.mark.parametrize("shape", ["ring", "grid"])
def test_digest_gate_64(shape):
    plain, _ = digest_for(False, shape, 64, seed=1, rounds=40)
    wired, transport = digest_for(True, shape, 64, seed=1, rounds=40)
    assert wired == plain
    assert transport.wire_frames > 0


def test_modelled_accounting_identical():
    """The ledger (modelled costs) must not notice the codec round-trip."""
    _, plain = digest_for(False, "ring", 16, seed=5, rounds=12)
    _, wired = digest_for(True, "ring", 16, seed=5, rounds=12)
    assert wired.total_bytes() == plain.total_bytes()
    assert wired.total_messages() == plain.total_messages()


def test_wire_counters_track_serialized_traffic():
    inner = Transport()
    transport = LoopbackTransport(inner)
    assert transport.wire_frames == 0 and transport.wire_bytes == 0
    assert transport.inner is inner
