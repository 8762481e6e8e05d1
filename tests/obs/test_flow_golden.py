"""Golden record of what the flow tracer records on the six-layer stack.

Pinned on the tree whose tags were three-field records rewritten at every
hop, with the hops column its ``first`` rows then had left out of the
digest: every delivery, every latency histogram, every flow edge and every
first-delivery ``(round, sender, latency)``, plus each layer's critical-path
chain. The one-integer tag records exactly this.

Re-pinned once since, with the stack goldens: the core and UO2 hand every
same-component sighting to a UO1 whose view can list its component, these
rings of 8 converge a round earlier, and a shorter run is fewer deliveries
and other first receipts. The tracer and the tag are what they were — a
handover is no delivery on ``uo1`` (docs/observability.md).

Re-pinned a second time, the two repair cases only, with the stack goldens:
a rebalance now keeps survivors in their component, a different start state
for the re-convergence. ``("repair", 7)`` keeps every critical path;
``("repair", 1)`` changes the core's (29, 22) -> (29, 26) and UO1's
(30, 26, 29) -> (30, 15).

Re-pinned a third time, with the stack goldens: a Vicinity reply skips the
ids its request shipped, so the core delivers fewer descriptors (and UO1,
fed by the core, a few different ones), and every table digest moved. No
run changed length and every critical path is the one it was.
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
        "dbb74dadf2830ed34ebbe636c8653d3e2340eea2d6403430ff73f43ccd43f30e",
        {"core": (31, 24), "peer_sampling": (31, 9), "uo1": (31, 27), "uo2": (31, 4)},
    ),
    ("plain", 7): (
        "fe3f09a42164a7b59dcc6cbe14c5f11a439dc6db59c3a49fe31f765fc5528056",
        {"core": (31, 29), "peer_sampling": (31, 2, 19, 28), "uo1": (31, 25), "uo2": (31, 12)},
    ),
    ("repair", 1): (
        "19bb8767d2242b6e941946e06eae4adaff844af73acfb239318d18556aee46bc",
        {
            "core": (29, 26),
            "peer_sampling": (31, 9, 20, 23),
            "uo1": (30, 15),
            "uo2": (30, 10),
        },
    ),
    ("repair", 7): (
        "13028b376de1ef403ff5acd805e5111e2a310e43f06f7602ef512a1bafa616e4",
        {
            "core": (28, 24),
            "peer_sampling": (31, 14, 29),
            "uo1": (29, 24),
            "uo2": (29, 18),
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
        assert found is not None  # a handover into UO1 is no delivery, yet no hole
        assert found.hops == len(found.path) - 1 >= 1
        assert found.path[0] == found.origin and found.path[-1] == found.receiver
        assert len(set(found.path)) == len(found.path)
