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
import pickle

import pytest

from repro.gossip.descriptors import Descriptor
from repro.perf.digest import adjacency_digest, result_digest
from repro.perf.workloads import run_cell, workload_matrix
from repro.runtime.api import RunnerConfig
from repro.scale import engine as scale_engine
from repro.scale.engine import ShardedEngine
from repro.shapes import available_shapes
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


#: shape -> (digest, messages, bytes) after 8 BSP rounds at seed 7 on 64
#: nodes (tree: 63), recorded on the hand-written shard nodes the engine ran
#: before it drove the stack's own layers; one golden for 1 and 3 shards.
SHAPE_GOLDENS = {
    "clique": (
        "aeb95a04a8c974812b83a3b359bbeefdace491e5d10d938931908c5d12c6c43b", 2048, 327680
    ),
    "grid": (
        "f89b5e3e2e2868473180e33cf66add0dee3be594a9a9abb7e3ae5cc423351528", 2048, 327680
    ),
    "hypercube": (
        "d22fcb50b069f47acde8cffe71af8cee94851a68d4bc02983164da598005f6c8", 2048, 327680
    ),
    "kring": (
        "edaafcfe9f5d3b0b42274c3a3e1791dd9029a8f8fa3c6ac861518264e5196bb9", 2048, 327680
    ),
    "line": (
        "b24992e156c7f214bf08109fbeb8e4f770f801edf07447284497ea33c873d017", 2048, 327680
    ),
    "random": (
        "ce71e5fa407e96a9e2953990e290fc70c4fe0b6c627e7c3b962db69158c1047d", 2048, 327680
    ),
    "ring": (
        "8a390ac63b71ee8e7c486790a5bde6be58770b6e25e549951c349b05f3093067", 2048, 327680
    ),
    "star": (
        "7ec2568d3c09f021189b1be204acded5a69c49cae757520668af88a76d511d17", 2048, 327680
    ),
    "torus": (
        "4d5006f1853c262a3221873bccd0512b088d6b927c740478dc402d3585f1e3cd", 2048, 327680
    ),
    "tree": (
        "a045f5d9c5392d8d4b129154d31ab5662a6970f1ce164e22c56f0359b730d6ec", 2016, 322560
    ),
    "wheel": (
        "f9492f56e713da0381212a320547991a544cfba84ece239ac15fa8d139257fb8", 2048, 327680
    ),
}


def test_every_shape_has_a_golden():
    assert sorted(SHAPE_GOLDENS) == available_shapes()


@pytest.mark.parametrize(
    "shape,n_nodes",
    [(shape, 63 if shape == "tree" else 64) for shape in sorted(SHAPE_GOLDENS)],
    ids=lambda value: str(value),
)
def test_serial_and_sharded_digests_are_identical(shape, n_nodes):
    for n_shards in (1, 3):
        with sharded(
            workload=f"{shape}-{n_nodes}",
            shape=shape,
            n_nodes=n_nodes,
            seed=7,
            n_shards=n_shards,
        ) as engine:
            for _ in range(8):
                engine.run_round()
            observed = (engine.digest(), engine.messages, engine.bytes)
        assert observed == SHAPE_GOLDENS[shape], n_shards


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


@pytest.mark.parametrize("n_shards", [2, 3])
@pytest.mark.parametrize("shape", ["ring", "grid"])
def test_the_parent_forwards_sealed_outboxes(shape, n_shards, monkeypatch):
    # What the parent routes from a worker is one bytes value per other
    # shard, never a Descriptor nor a row it has to open; unsealed, every
    # row is a plain tuple and the messages are the inline run's
    # cross-shard messages field by field; and mp equals inline in digest,
    # messages and bytes. grid's profiles are tuples, ring's integers.
    routed = {}
    real_route = ShardedEngine._route

    def spy(self, outboxes):
        routed[self.mode_used].append(outboxes)
        return real_route(self, outboxes)

    monkeypatch.setattr(ShardedEngine, "_route", spy)
    runs = {}
    for mode in ("inline", "mp"):
        routed[mode] = []
        with sharded(
            workload=f"{shape}-64", shape=shape, n_nodes=64, seed=7,
            n_shards=n_shards, mode=mode,
        ) as engine:
            if engine.mode_used != mode:
                pytest.skip("worker processes unavailable in this environment")
            for _ in range(4):
                engine.run_round()
            runs[mode] = (engine.digest(), engine.messages, engine.bytes)
    assert runs["mp"] == runs["inline"]
    assert len(routed["mp"]) == len(routed["inline"]) == 4 * 4  # barriers
    crossed = 0
    for sealed_step, plain_step in zip(routed["mp"], routed["inline"]):
        for sender, (sealed, plain) in enumerate(zip(sealed_step, plain_step)):
            assert list(sealed) == list(plain) == [
                shard for shard in range(n_shards) if shard != sender
            ]
            for to, blob in sealed.items():
                assert type(blob) is bytes
                rows = [row for message in pickle.loads(blob) for row in message[2]]
                assert {type(row) for row in rows} <= {tuple}
                got, want = scale_engine._unseal(blob), plain[to]
                assert len(got) == len(want)
                crossed += len(got)
                for message, expected in zip(got, want):
                    assert message[:2] == expected[:2] and message[3] == expected[3]
                    assert engine.plan.shard_of(message[1]) == to
                    assert all(type(d) is Descriptor for d in message[2])
                    assert [tuple(d) for d in message[2]] == [tuple(d) for d in expected[2]]
    assert crossed > 0


def test_rows_rebuild_descriptors_with_profile_and_provenance():
    batch = [
        (0, 5, [Descriptor(3, 2, (1, 4), 9), Descriptor(8, 0, 17)], ("grid", 0)),
        (5, 0, [Descriptor(0, 1)], None),
    ]
    sealed = scale_engine._seal(batch)
    assert type(sealed) is bytes
    rows = pickle.loads(sealed)
    assert all(type(row) is tuple for message in rows for row in message[2])
    rebuilt = scale_engine._unseal(sealed)
    assert [m[:2] + m[3:] for m in rebuilt] == [m[:2] + m[3:] for m in batch]
    for got, want in zip(rebuilt, batch):
        assert all(type(d) is Descriptor for d in got[2])
        assert [tuple(d) for d in got[2]] == [tuple(d) for d in want[2]]  # tag too


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
