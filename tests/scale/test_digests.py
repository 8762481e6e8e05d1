"""Digest regression: the scale engine's determinism gate.

For a fixed ``(workload, seed)`` the overlay digest must be byte-identical
across shard count (even/uneven partitions), execution mode and either
spelling of ``RunnerConfig.backend`` — that invariance is what licenses
running a tier sharded at all.
Fixed round counts keep the tier-1 cells fast.

The golden half: the digests, message/byte counts and rounds-to-converge
committed in ``elementary_cells.json`` are the behavioural contract, so a
fresh ``run_cell`` of every committed cell must reproduce them exactly — on
the round engine (the ``gossip`` matrix) and on the sharded engine (the
``scale`` tiers; at 1 024 nodes serial and sharded on 4 processes, the
slow lane's gate).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.perf.digest import adjacency_digest, result_digest
from repro.perf.workloads import run_cell, workload_matrix
from repro.runtime.api import RunnerConfig
from repro.scale.engine import ShardedEngine
from repro.sim.rng import spawn_seeds

COMMITTED = json.loads(
    pathlib.Path(__file__).with_name("elementary_cells.json").read_text(
        encoding="utf-8"
    )
)


def sharded(**fields) -> ShardedEngine:
    return ShardedEngine(RunnerConfig(kind="sharded", **fields))


def digest_after(
    shape: str, n_nodes: int, rounds: int, *, backend="object", n_shards=1, mode="inline"
) -> str:
    with sharded(
        workload=f"{shape}-{n_nodes}",
        shape=shape,
        n_nodes=n_nodes,
        seed=7,
        backend=backend,
        n_shards=n_shards,
        mode=mode,
    ) as engine:
        for _ in range(rounds):
            engine.run_round()
        return engine.digest()


@pytest.mark.parametrize("shape,n_nodes", [("ring", 64), ("grid", 64)])
def test_serial_and_sharded_digests_are_identical(shape, n_nodes):
    serial = digest_after(shape, n_nodes, 5)
    for n_shards in (2, 4):
        assert digest_after(shape, n_nodes, 5, n_shards=n_shards) == serial


def test_shard_count_invariance_with_uneven_partition():
    # 64 nodes over 3 shards splits 22/21/21 — the uneven case.
    assert digest_after("ring", 64, 5, n_shards=1) == digest_after(
        "ring", 64, 5, n_shards=3
    )


def test_backend_invariance():
    # Both spellings build PartialView; the bench still passes "columnar".
    assert digest_after("ring", 64, 5, backend="object") == digest_after(
        "ring", 64, 5, backend="columnar"
    )


def test_sharded_columnar_matches_serial_object():
    # The bench gate in miniature: its serial-object reference and its
    # sharded config, under the backend spelling the bench passes.
    serial_object = digest_after("grid", 64, 4, backend="object", n_shards=1)
    serial_columnar = digest_after("grid", 64, 4, backend="columnar", n_shards=1)
    sharded_columnar = digest_after("grid", 64, 4, backend="columnar", n_shards=4)
    assert serial_object == serial_columnar == sharded_columnar


def test_process_pool_matches_inline():
    inline = digest_after("ring", 48, 4, backend="columnar", n_shards=2)
    with sharded(
        workload="ring-48",
        shape="ring",
        n_nodes=48,
        seed=7,
        backend="columnar",
        n_shards=2,
        mode="mp",
    ) as engine:
        if engine.mode_used != "mp":
            pytest.skip("process pool unavailable in this environment")
        for _ in range(4):
            engine.run_round()
        assert engine.digest() == inline


def test_runs_are_reproducible_and_seed_sensitive():
    first = digest_after("ring", 48, 3)
    again = digest_after("ring", 48, 3)
    assert first == again
    with sharded(
        workload="ring-48", shape="ring", n_nodes=48, seed=8
    ) as engine:
        for _ in range(3):
            engine.run_round()
        assert engine.digest() != first


def test_digest_hashes_full_adjacency():
    with sharded(
        workload="ring-48", shape="ring", n_nodes=48, seed=7, n_shards=3
    ) as engine:
        engine.run_round()
        record = engine.adjacency()
        assert sorted(record) == list(range(48))
        assert set(record[0]) == {"peer_sampling", "overlay"}
        assert engine.digest() == adjacency_digest(record)
        assert adjacency_digest(record) == result_digest(record)


def test_transport_accounting_is_mode_invariant():
    engines = {}
    for n_shards in (1, 3):
        with sharded(
            workload="ring-48", shape="ring", n_nodes=48, seed=7, n_shards=n_shards
        ) as engine:
            for _ in range(3):
                engine.run_round()
            engines[n_shards] = (engine.messages, engine.bytes)
    assert engines[1] == engines[3]
    messages, byte_count = engines[1]
    assert messages > 0 and byte_count > messages  # header + descriptors


@pytest.mark.parametrize("workload", workload_matrix("ci"), ids=lambda w: w.name)
def test_committed_gossip_cell_reproduces(workload):
    (cell,) = [c for c in COMMITTED["gossip"]["ci"] if c["name"] == workload.name]
    seeds = spawn_seeds(
        COMMITTED["master_seed"], len(cell["seeds"]), "bench", workload.name
    )
    assert list(seeds) == cell["seeds"]
    results = [
        run_cell(workload.config(seed), workload.max_rounds) for seed in seeds
    ]
    assert [r.digest for r in results] == cell["digests"]
    assert sum(r.messages for r in results) == cell["messages"]
    assert sum(r.bytes for r in results) == cell["bytes"]
    rounds = [r.rounds_to_converge for r in results]
    assert round(sum(rounds) / len(rounds), 2) == cell["rounds_to_converge_mean"]


def assert_scale_tier_reproduces(tier, **engine):
    """Every cell of ``tier``, run to convergence under ``engine``, is the golden."""
    matrix = workload_matrix(tier, suite="scale")
    cells = COMMITTED["scale"][tier]
    assert [w.name for w in matrix] == [c["name"] for c in cells]
    for workload, cell in zip(matrix, cells):
        (seed,) = spawn_seeds(COMMITTED["master_seed"], 1, "scale-bench", workload.name)
        assert seed == cell["seed"]
        result = run_cell(
            workload.config(seed, kind="sharded", **engine), workload.max_rounds
        )
        if engine.get("mode") == "mp" and result.mode != "mp":
            pytest.skip("process pool unavailable in this environment")
        assert result.digest == cell["digest"]
        assert result.messages == cell["messages"]
        assert result.bytes == cell["bytes"]
        assert result.rounds_to_converge == cell["rounds_to_converge"]


@pytest.mark.parametrize("tier", ["ci", pytest.param("1k", marks=pytest.mark.slow)])
def test_committed_scale_tier_reproduces(tier):
    assert_scale_tier_reproduces(tier)  # serial-object, the reference


@pytest.mark.slow
@pytest.mark.parametrize(
    "engine",
    [{"backend": "columnar", "n_shards": 4, "mode": "mp"}],
    ids=["sharded-columnar"],
)
def test_1k_tier_is_identical_across_backend_and_sharding(engine):
    # With test_committed_scale_tier_reproduces[1k] (serial) this is the
    # pair the 1k tier exists for: one golden, two configurations. The
    # 4-process BSP schedule runs here under the ``backend="columnar"``
    # spelling the bench passes; every view is a PartialView.
    assert_scale_tier_reproduces("1k", **engine)
