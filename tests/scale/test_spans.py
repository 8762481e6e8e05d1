"""Sharded-engine phase spans: observable timing, invariant digests."""

from __future__ import annotations

from repro.obs.collector import Collector
from repro.runtime.api import RunnerConfig, make_runner


def build(obs=None, **overrides):
    config = RunnerConfig(
        kind="sharded",
        workload="elementary",
        shape="ring",
        n_nodes=24,
        seed=5,
        n_shards=overrides.pop("n_shards", 3),
        **overrides,
    )
    return make_runner(config, obs=obs)


def test_phase_spans_recorded_per_round():
    # Five steps per round in both modes: request, then respond and absorb
    # per layer (the first absorb also opens the overlay's exchanges), with
    # a barrier before each respond and each absorb.
    per_round = {
        "round": 1, "shard:request": 1, "shard:respond": 2, "shard:absorb": 2,
        "shard:barrier": 4,
    }
    for mode in ("inline", "mp"):
        collector = Collector(gauge_every=0)
        with build(obs=collector, mode=mode) as runner:
            if runner.mode_used != mode:
                continue  # no fork on this platform: inline is covered
            runner.run(4)
            executed = runner.round
        assert executed > 0
        assert {name: collector.spans.counts[name] for name in per_round} == {
            name: count * executed for name, count in per_round.items()
        }, mode


def test_traffic_gauges_published():
    collector = Collector(gauge_every=0)
    with build(obs=collector) as runner:
        runner.run(2)
        assert collector.gauge_value("shard_messages") == runner.messages
        assert collector.gauge_value("shard_bytes") == runner.bytes


def test_digest_identical_with_and_without_obs():
    """Phase spans are observation only — the digest invariant must hold."""
    with build() as bare:
        bare.run(6)
        bare_digest = bare.digest()
        bare_round = bare.round
    collector = Collector(gauge_every=0)
    with build(obs=collector) as observed:
        observed.run(6)
        assert observed.round == bare_round
        assert observed.digest() == bare_digest
    assert collector.spans.totals  # and the spans were really on


def test_make_runner_leaves_obs_unset_by_default():
    with build() as runner:
        assert runner.obs is None
