"""The zero-interference contract of the disabled instrumentation path.

Telemetry must be observation only: attaching a collector may not change a
single simulation outcome, and leaving it off must leave the hot path with
nothing but one ``ctx.obs is None`` check per site. Both directions are
pinned on the perf workloads (whose digest is the canonical overlay
fingerprint) and on a full two-component deployment.
"""

from __future__ import annotations

from repro.core import Runtime
from repro.obs.collector import Collector
from repro.obs.hooks import attach_collector
from repro.perf.digest import overlay_digest
from repro.perf.workloads import run_cell, workload_matrix

RUNTIME_LAYERS = (
    "peer_sampling",
    "core",
    "uo1",
    "uo2",
    "port_selection",
    "port_connection",
)


class TestWorkloadDigests:
    def test_digest_identical_with_and_without_collector(self):
        workload = workload_matrix("ci")[0]
        baseline = run_cell(workload.config(7), workload.max_rounds)
        instrumented = run_cell(
            workload.config(7), workload.max_rounds, Collector(gauge_every=1)
        )
        assert instrumented.digest == baseline.digest
        assert instrumented.messages == baseline.messages
        assert instrumented.rounds_to_converge == baseline.rounds_to_converge

    def test_shared_collector_across_cells_stays_inert(self):
        workload = workload_matrix("ci")[0]
        baseline = [
            run_cell(workload.config(seed), workload.max_rounds) for seed in (1, 2)
        ]
        shared = Collector(gauge_every=0)
        again = [
            run_cell(workload.config(seed), workload.max_rounds, collector=shared)
            for seed in (1, 2)
        ]
        assert [r.digest for r in again] == [r.digest for r in baseline]


class TestDeploymentDigests:
    def test_overlays_identical_with_and_without_collector(
        self, two_component_assembly, fast_config
    ):
        def converge(with_collector: bool):
            deployment = Runtime(
                two_component_assembly, config=fast_config, seed=11
            ).deploy(24)
            if with_collector:
                attach_collector(deployment, gauge_every=1)
            report = deployment.run_until_converged(max_rounds=80)
            return deployment, report

        plain, plain_report = converge(False)
        instrumented, instrumented_report = converge(True)
        assert instrumented_report.rounds == plain_report.rounds
        assert overlay_digest(
            instrumented.network, RUNTIME_LAYERS
        ) == overlay_digest(plain.network, RUNTIME_LAYERS)
        for layer in RUNTIME_LAYERS:
            assert instrumented.transport.total_messages(
                layer
            ) == plain.transport.total_messages(layer)


class TestProvenanceDisabledPath:
    """Without a flow tracer, tracing must be *fully* off: no provenance
    tags anywhere in the overlay, and digests byte-identical to the
    uninstrumented run (a collector alone never mints tags)."""

    def test_collector_without_flow_mints_no_tags(
        self, two_component_assembly, fast_config
    ):
        deployment = Runtime(
            two_component_assembly, config=fast_config, seed=11
        ).deploy(24)
        collector = attach_collector(deployment, gauge_every=1)
        assert collector.flow is None
        deployment.run_until_converged(max_rounds=80)
        for node in deployment.network.alive_nodes():
            for _layer, protocol in node.stack():
                view = getattr(protocol, "view", None)
                if view is None:
                    continue
                for descriptor in view:
                    assert descriptor.provenance is None

    def test_flow_disabled_digest_matches_uninstrumented(self):
        workload = workload_matrix("ci")[0]
        baseline = run_cell(workload.config(5), workload.max_rounds)
        flowless = run_cell(
            workload.config(5),
            workload.max_rounds,
            collector=Collector(gauge_every=1, flow=None),
        )
        assert flowless.digest == baseline.digest
