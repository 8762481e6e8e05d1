"""Golden record of what the flow tracer records on the six-layer stack.

Pinned on the tree whose tags were three-field records rewritten at every
hop, with the hops column its ``first`` rows then had left out of the
digest: every delivery, every latency histogram, every flow edge and every
first-delivery ``(round, sender, latency)``, plus each layer's critical-path
chain. The one-integer tag records exactly this, untouched since.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

import pytest

from repro.obs.collector import Collector
from repro.obs.flow import FlowTracer
from tests.core.test_stack_golden import GOLDEN as STACK_CASES
from tests.core.test_stack_golden import converge


@lru_cache(maxsize=None)
def traced(scenario: str, seed: int) -> FlowTracer:
    """The tracer of one stack-golden case run to convergence."""
    collector = Collector(gauge_every=0, flow=FlowTracer())
    converge(scenario, seed, collector)
    return collector.flow


def record(flow: FlowTracer):
    """(digest of the raw tables, {layer: critical-path chain})."""
    text = json.dumps(flow.to_state(), sort_keys=True, separators=(",", ":"))
    paths = {layer: flow.critical_path(layer).path for layer in flow.layers()}
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), paths


GOLDEN = {
    ("plain", 1): (
        "dda6aa86ae5487d98fb8febc33d4479457b65a219560030699319ca9100ecf75",
        {"core": (22, 16), "peer_sampling": (31, 9, 20), "uo1": (30, 25), "uo2": (31, 29)},
    ),
    ("plain", 7): (
        "a4cebe9740011289a5e6f9a51218cabd6f63906c01e75c5a039260cdc8cf6e88",
        {"core": (30, 24), "peer_sampling": (31, 14, 16), "uo1": (30, 28), "uo2": (31, 24)},
    ),
    ("repair", 1): (
        "107a3b39e63a78a08f9d639962ed36f8d88b3863d571a4e105e50d61c02fe64b",
        {
            "core": (30, 23),
            "peer_sampling": (31, 1, 16, 15, 30),
            "uo1": (30, 22),
            "uo2": (29, 28),
        },
    ),
    ("repair", 7): (
        "6f6931e64b8b0555f70e3197354b6ba5abee49b9d2891a1ce939e79aa88a81c5",
        {
            "core": (28, 24),
            "peer_sampling": (31, 2, 19, 28, 5, 13),
            "uo1": (29, 27),
            "uo2": (29, 10),
        },
    ),
}


@pytest.mark.parametrize("scenario,seed", sorted(GOLDEN))
def test_tracer_reproduces_golden_record(scenario, seed):
    assert record(traced(scenario, seed)) == GOLDEN[scenario, seed]


@pytest.mark.parametrize("scenario,seed", sorted(STACK_CASES))
def test_reported_hops_are_the_reported_path(scenario, seed):
    """The hop count used to be the tag's — of whichever copy arrived first
    — beside a chain rebuilt from first-receipt senders, and the two could
    disagree (``("loss", 1)`` and ``("repair", 7)`` here did)."""
    flow = traced(scenario, seed)
    assert flow.layers() == ["core", "peer_sampling", "uo1", "uo2"]
    for layer in flow.layers():
        found = flow.critical_path(layer)
        assert found.hops == len(found.path) - 1 >= 1
        assert found.path[0] == found.origin and found.path[-1] == found.receiver
        assert len(set(found.path)) == len(found.path)
