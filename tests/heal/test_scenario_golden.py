"""Golden record of every scenario row, fault catalogue and corruption
catalogue alike.

Each row runs through its command — ``repro faults`` for the six fault rows,
``repro heal`` for the three corruption rows (managed and unmanaged) and
``partition-churn`` — at the smallest population the harness deploys
(32 nodes, seed 1), with telemetry attached. The numbers are read back from
the printed report, so the record pins what an operator sees:

- fault rows: per event, each layer's time-to-repair; the final per-layer
  state; the residual dead-descriptor fraction; drops by reason and the
  delayed-exchange count;
- corruption rows and ``partition-churn``: rounds to re-stabilize, the
  verdict, and the remediation summary with its action lines.

Every collector a row runs with must end with no event kind outside the
taxonomy.

``catastrophe`` moved from ``(0, 0, 0, 0, 0)`` to ``(1, 0, 0, 0, 1)`` when a
rebalance began to keep survivors in their component. The kill leaves ring1
with two members. It is now refilled from the overflow tails of three other
rings (7 from ring0, 22 and 23 from ring2, 31 from ring3), who never shared a
view, where the contiguous cut had handed it 7, 12, 14, 16, 17, 18 — mostly
old ring neighbours. So 22 needs a second core round to reach its new
neighbour 7. And ring3's kept rank 0 (node 24, where the cut had made 25 the
manager) drew the one of its two ring2 contacts that did not yet hold the
binding for ring2's east port. Each layer is one round later, and the row
still heals.

``flaky-links`` moved from ``(20, 1, 0, 0, 0)`` to ``(0, 0, 0, 0, 0)`` after
its degrade when a refused exchange stopped forgetting a partner the
transport still calls reachable. Before, every exchange the 60 % loss or the
timeout refused dropped a cross-zone neighbour from the core and UO1 views,
so both layers left their legal state and took 20 and 1 rounds to repair;
now the loss costs turns only, and no layer leaves it. Nodes keep retrying
the partners behind the degraded link, so more exchanges meet it: loss drops
478 -> 562, delayed exchanges 341 -> 402. The row still ends all-OK.

Four rows moved when a Vicinity reply began skipping the ids its request
shipped, a different core trajectory with the same verdicts:
``catastrophe``'s port connection repairs in the round of the kill
(``(1, 0, 0, 0, 1)`` -> ``(1, 0, 0, 0, 0)``); ``partition`` drops
792 -> 771 exchanges at the cut with the same repair times; ``flaky-links``
loses 562 -> 561 and delays 402 -> 401; ``poisoned`` (managed) purges
195 -> 194 entries. Every row still heals, and every managed row recovers
with the one action it took before.
"""

from __future__ import annotations

import re

import pytest

from repro.cli import main
from repro.obs.collector import Collector

N_NODES = "32"
SEED = "1"

#: Column order of the time-to-repair table.
LAYERS = ("core", "uo1", "uo2", "port_selection", "port_connection")

#: Every layer converged at the end of the run.
ALL_OK = "core=ok, port_connection=ok, port_selection=ok, uo1=ok, uo2=ok"


@pytest.fixture
def collectors(monkeypatch):
    """Every Collector constructed while the test runs."""
    made = []
    init = Collector.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Collector, "__init__", recording_init)
    return made


def run(argv, tmp_path, capsys):
    """Run one CLI command with telemetry on; return its stdout."""
    obs = str(tmp_path / "events.jsonl")
    code = main(argv + ["--nodes", N_NODES, "--seed", SEED, "--obs", obs])
    out = capsys.readouterr().out
    assert code == 0, out
    return out


def fault_record(text):
    """The recovery numbers of one ``repro faults`` report."""
    lines = text.splitlines()
    header = next(line for line in lines if line.startswith("round"))
    assert tuple(re.findall(r"(\w+) ttr", header)) == LAYERS
    repair = []
    for line in lines[lines.index(header) + 2:]:
        if not line.strip():
            break
        tokens = line.split()
        event, values = tokens[1:-len(LAYERS)], tokens[-len(LAYERS):]
        repair.append((
            " ".join(event),
            tuple(None if value == "-" else int(value) for value in values),
        ))
    record = {"repair": repair, "drops": {}, "delayed": 0}
    for line in lines:
        key, _, value = line.partition(": ")
        if key == "final state":
            record["final"] = value
        elif key == "residual dead-descriptor fraction":
            record["residual"] = value
        elif key == "dropped exchanges":
            record["drops"] = {
                reason: int(count)
                for reason, count in (item.split("=") for item in value.split(", "))
            }
        elif key == "delayed exchanges":
            record["delayed"] = int(value)
    return record


def heal_records(text):
    """``{flavor: record}`` of one ``repro heal`` report (one or two runs)."""
    records = {}
    for block in text.split("\n\n"):
        head = re.match(r"heal \S+ \((\w+)\)", block)
        if head is None:
            continue
        lines = block.splitlines()
        stabilize = re.search(r"time-to-stabilize: (\d+) rounds", block)
        remediation = [
            line.partition(": ")[2]
            for line in lines
            if line.startswith("remediation: ")
        ]
        records[head.group(1)] = {
            "stabilize_rounds": int(stabilize.group(1)) if stabilize else None,
            "verdict": re.search(r"verdict: (\w+)", block).group(1),
            "remediation": remediation[0] if remediation else None,
            "actions": [line.strip() for line in lines if line.startswith("  r")],
        }
    return records


FAULT_GOLDEN = {
    "partition": {
        "repair": [
            ("r2 partition (islands=[16, 16])", (21, 21, 0, 0, 0)),
            ("r22 heal (partition merged (rendezvous=8))", (1, 1, 0, 0, 0)),
        ],
        "final": ALL_OK,
        "residual": "0.0000",
        "drops": {"partition": 771},
        "delayed": 0,
    },
    "zone-outage": {
        "repair": [
            ("r2 zone_pause (zone=zone-a victims=8)", (0, 0, 0, 0, 0)),
            ("r17 zone_restore (zone=zone-a revived=8)", (24, 49, 0, 1, 0)),
        ],
        "final": ALL_OK,
        "residual": "0.0000",
        "drops": {},
        "delayed": 0,
    },
    "zone-kill": {
        "repair": [
            ("r2 zone_kill (zone=zone-a victims=8)", (0, 0, 0, 0, 0)),
            ("r3 rebalance (roles reassigned)", (0, 0, 0, 0, 1)),
        ],
        "final": ALL_OK,
        "residual": "0.0000",
        "drops": {},
        "delayed": 0,
    },
    "catastrophe": {
        "repair": [
            ("r2 catastrophe (killed=9)", (1, 0, 0, 0, 0)),
            ("r2 rebalance (roles reassigned)", (1, 0, 0, 0, 0)),
        ],
        "final": ALL_OK,
        "residual": "0.0000",
        "drops": {},
        "delayed": 0,
    },
    "flaky-links": {
        "repair": [
            (
                "r2 degrade (zone_pairs=[('zone-a', 'zone-b')] "
                "loss=0.6 latency=0.5)",
                (0, 0, 0, 0, 0),
            ),
            ("r27 restore (zone_pairs=[('zone-a', 'zone-b')])", (0, 0, 0, 0, 0)),
        ],
        "final": ALL_OK,
        "residual": "0.0000",
        "drops": {"loss": 561},
        "delayed": 401,
    },
    "pause-resume": {
        "repair": [
            ("r2 pause (paused=8)", (0, 0, 0, 0, 0)),
            ("r22 resume (revived=8)", (36, 36, 0, 2, 1)),
        ],
        "final": ALL_OK,
        "residual": "0.0000",
        "drops": {},
        "delayed": 0,
    },
}

HEAL_GOLDEN = {
    "segregated": {
        "managed": {
            "stabilize_rounds": 12,
            "verdict": "recovered",
            "remediation": (
                "recovered (1 incident(s), 1 action(s))"
            ),
            "actions": [
                "r11: stalled_convergence -> rendezvous_reseed [a0] applied "
                "(seeded=8)",
            ],
        },
        "unmanaged": {
            "stabilize_rounds": None,
            "verdict": "degraded",
            "remediation": None,
            "actions": [],
        },
    },
    "poisoned": {
        "managed": {
            "stabilize_rounds": 7,
            "verdict": "recovered",
            "remediation": (
                "recovered (1 incident(s), 1 action(s))"
            ),
            "actions": [
                "r6: dead_descriptor_buildup -> tombstone_purge [a0] applied "
                "(entries_purged=194 nodes_affected=32 views_reseeded=7)",
            ],
        },
        "unmanaged": {
            "stabilize_rounds": None,
            "verdict": "degraded",
            "remediation": None,
            "actions": [],
        },
    },
    "stale": {
        "managed": {
            "stabilize_rounds": 3,
            "verdict": "recovered",
            "remediation": (
                "recovered (1 incident(s), 1 action(s))"
            ),
            "actions": [
                "r2: churn_spike -> elastic_adjust [a0] applied (population=23 "
                "roles_moved=23 views_reseeded=6)",
            ],
        },
        "unmanaged": {
            "stabilize_rounds": None,
            "verdict": "degraded",
            "remediation": None,
            "actions": [],
        },
    },
    "partition-churn": {
        "managed": {
            "stabilize_rounds": 14,
            "verdict": "recovered",
            "remediation": (
                "recovered (2 incident(s), 4 action(s))"
            ),
            "actions": [
                "r4: churn_spike -> elastic_adjust [a0] applied (population=24 "
                "roles_moved=24 views_reseeded=0)",
                "r11: stalled_convergence -> rendezvous_reseed [a0] deferred "
                "(reason=partition cut still active)",
                "r12: stalled_convergence -> rendezvous_reseed [a0] deferred "
                "(reason=partition cut still active)",
                "r13: stalled_convergence -> rendezvous_reseed [a0] deferred "
                "(reason=partition cut still active)",
            ],
        },
    },
}


@pytest.mark.slow
@pytest.mark.parametrize("row", sorted(FAULT_GOLDEN))
def test_fault_row_reproduces_golden(row, tmp_path, capsys, collectors):
    text = run(["faults", "--scenario", row], tmp_path, capsys)
    assert fault_record(text) == FAULT_GOLDEN[row]
    assert collectors
    assert [collector.unknown_kinds for collector in collectors] == [{}] * len(collectors)


@pytest.mark.slow
@pytest.mark.parametrize("row", sorted(HEAL_GOLDEN))
def test_heal_row_reproduces_golden(row, tmp_path, capsys, collectors):
    argv = ["heal", "--scenario", row]
    if row != "partition-churn":
        argv.append("--compare")
    text = run(argv, tmp_path, capsys)
    assert heal_records(text) == HEAL_GOLDEN[row]
    assert collectors
    assert [collector.unknown_kinds for collector in collectors] == [{}] * len(collectors)
