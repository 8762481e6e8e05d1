"""End-to-end fault scenarios: injection, recovery, and the CLI entry point.

These are the acceptance tests of the fault subsystem: a partitioned and a
decimated deployment must re-converge every layer within the documented
round budgets (see ``docs/faults.md``).
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.heal.scenarios import FAULT_ROWS, format_scenario, run_scenario

#: Documented budget: rounds from partition heal until UO1 *and* the core
#: overlay span the former cut again (observed: ~4 at 64 nodes, ~15 at 256).
PARTITION_MERGE_BUDGET = 25

#: Documented budget: rounds from a 30% kill + rebalance until every layer's
#: predicate holds again (observed: ~10 at 64-128 nodes).
CATASTROPHE_REPAIR_BUDGET = 40


@pytest.fixture(scope="module")
def partition_result():
    return run_scenario("partition", n_nodes=64, seed=1)


@pytest.mark.slow
class TestPartitionScenario:
    def test_every_layer_reconverges(self, partition_result):
        assert partition_result.verdict == "recovered"
        assert all(partition_result.report.final_converged.values())

    def test_merge_within_documented_budget(self, partition_result):
        merge = partition_result.report.partition_merge_rounds
        assert merge is not None
        assert merge <= PARTITION_MERGE_BUDGET

    def test_cut_actually_dropped_traffic(self, partition_result):
        assert partition_result.drop_reasons.get("partition", 0) > 0

    def test_no_residual_dead_descriptors(self, partition_result):
        assert partition_result.report.residual_dead_fraction == pytest.approx(
            0.0, abs=0.05
        )

    def test_format_mentions_verdict(self, partition_result):
        text = format_scenario(partition_result)
        assert "healed: yes" in text
        assert "time-to-repair" in text


@pytest.mark.slow
class TestCatastropheScenario:
    def test_thirty_percent_kill_reconverges(self):
        result = run_scenario("catastrophe", n_nodes=64, seed=1)
        assert result.verdict == "recovered"
        rebalance = result.report.recovery_for("rebalance")
        assert rebalance is not None
        for layer, rounds in rebalance.repair_rounds.items():
            assert rounds is not None, f"{layer} never repaired"
            assert rounds <= CATASTROPHE_REPAIR_BUDGET


class TestScenarioPlumbing:
    def test_population_floor(self):
        with pytest.raises(ConfigurationError):
            run_scenario("partition", n_nodes=16)

    def test_registry_covers_the_matrix(self):
        assert set(FAULT_ROWS) == {
            "partition",
            "zone-outage",
            "zone-kill",
            "catastrophe",
            "flaky-links",
            "pause-resume",
        }


class TestFaultsCli:
    @pytest.mark.slow
    def test_partition_scenario_exits_zero(self, capsys):
        assert main(["faults", "--scenario", "partition", "--nodes", "64"]) == 0
        out = capsys.readouterr().out
        assert "scenario partition" in out
        assert "time-to-repair" in out
        assert "healed: yes" in out

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["faults", "--scenario", "meteor-strike"])

    def test_rejects_tiny_population(self, capsys):
        assert main(["faults", "--scenario", "partition", "--nodes", "8"]) == 2
        assert "error" in capsys.readouterr().err
