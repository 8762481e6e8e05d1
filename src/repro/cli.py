"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``validate FILE``
    Parse + compile a DSL topology file; report errors with positions.
``lint [PATHS…]``
    Static verification without deploying anything: run every assembly
    rule (``RPR…``) over the given ``.topo`` files/directories; with
    ``--self-check`` the source passes over ``repro``'s own code — the
    determinism rules (``DET…``: each nondeterminism source reported at its
    site, or where an engine-round root reaches it), shard safety
    (``SHD…``) and the peer seam (``PEER…``: a gossip layer asks
    ``ctx.peers``). ``--format json`` for machines. Exits 1 when any
    error-severity diagnostic is found.
``show FILE``
    Print the normalized (pretty-printed) form of a topology file.
``shapes``
    List the shapes available in the component library.
``run FILE``
    Deploy the topology on the simulator, converge, and report per-layer
    rounds, bandwidth split, and a structural summary.
``export FILE``
    Converge the topology and dump the realized overlay as Graphviz DOT or
    an edge list.
``bench TARGET``
    Regenerate a paper figure, experiment or ablation (``e1``-``e3``,
    ``fig2``-``fig4``, ``a1``-``a8``) at the current ``REPRO_SCALE`` and
    print its table. (Performance is measured by the repository benchmark,
    ``python3 -m bench``.)
``faults --scenario NAME``
    Run one scenario of the fault-injection suite (or the whole matrix)
    and print its self-healing report: per-layer time-to-repair, residual
    dead-descriptor fraction, and partition-merge time.
``heal --scenario NAME``
    Close the loop: start the overlay from a corrupted state (segregated /
    poisoned / stale views), let the remediation engine repair it, and
    print the remediation timeline, time-to-stabilize, and verdict.
    ``matrix`` pairs managed vs unmanaged across every corruption mode and
    writes ``BENCH_heal.json``; ``partition-churn`` is the compound
    end-to-end scenario (cut + kill wave); ``--compare`` adds the
    unmanaged baseline to a single mode; ``--timeline PATH`` exports the
    remediation timeline as JSONL.
``report TARGET``
    The observability window, through the
    :class:`~repro.obs.registry.MetricsRegistry` facade. With a ``.topo``
    file: deploy, converge, and print convergence rounds, bandwidth split,
    and live telemetry; ``--flow`` adds causal propagation tracing,
    ``--profile`` the sorted per-layer self-time span table, and
    ``--jsonl`` / ``--prom`` export the telemetry. With a ``.jsonl`` event
    stream: summarize it post-mortem. With a swarm status directory: the
    view ``swarm`` prints, from one observer poll and the merged node
    streams. ``faults`` and ``heal`` take ``--obs PATH`` to capture
    telemetry as they run.
``watch FILE``
    Live terminal view of a converging run: population, per-layer
    counters and degrees, information flow, and active health alerts,
    re-rendered every ``--interval`` rounds (``--once`` renders a single
    snapshot after the run; ``--alerts PATH`` writes the alert stream;
    ``--heal`` attaches the remediation engine and adds its panel —
    verdict, active incidents, their attempts and next retry round).
    ``--swarm DIR`` (not with ``--heal``) watches a swarm status directory
    through the supervisor's observer instead, and exits 2 if it stalls.
``swarm``
    Launch a local UDP swarm, one process per node, supervise it to
    convergence, and print its view.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.core.runtime import Runtime
from repro.dsl import compile_source, to_source
from repro.shapes import available_shapes


def _load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return compile_source(handle.read())


def _deploy(args: argparse.Namespace, **collect):
    """Compile and deploy ``args.file`` (``--nodes`` / ``--seed``).

    With collector options (``flow=``, ``health=``; see
    :func:`~repro.obs.hooks.attach_collector`) a collector sampling every
    ``--gauge-every`` rounds is attached before any round runs. Returns
    ``(deployment, collector or None)``.
    """
    deployment = Runtime(_load(args.file), seed=args.seed).deploy(args.nodes)
    if not collect:
        return deployment, None
    from repro.obs.hooks import attach_collector

    return deployment, attach_collector(
        deployment, gauge_every=args.gauge_every, **collect
    )


def _write_alerts(path: str, collector) -> None:
    """Write just the alert/alert_cleared events of ``collector`` (JSONL)."""
    from repro.obs.export import write_jsonl

    fired = [
        event for event in collector.events if event.kind in ("alert", "alert_cleared")
    ]
    write_jsonl(path, fired)
    print(f"wrote {path} ({len(fired)} alert event(s))")


def _cmd_validate(args: argparse.Namespace) -> int:
    assembly = _load(args.file)
    print(
        f"OK: topology {assembly.name!r} — "
        f"{len(assembly.components)} component(s), {len(assembly.links)} link(s), "
        f"min {assembly.min_nodes()} node(s)"
        + (f", declared nodes {assembly.total_nodes}" if assembly.total_nodes else "")
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.diagnostics import has_errors
    from repro.lint import lint_paths, render_json, render_text

    if not args.paths and not args.self_check:
        print("error: lint needs at least one path or --self-check", file=sys.stderr)
        return 2
    diagnostics = lint_paths(args.paths, with_self_check=args.self_check)
    render = render_json if args.format == "json" else render_text
    print(render(diagnostics))
    return 1 if has_errors(diagnostics) else 0


def _cmd_show(args: argparse.Namespace) -> int:
    print(to_source(_load(args.file)), end="")
    return 0


def _cmd_shapes(args: argparse.Namespace) -> int:
    for name in available_shapes():
        print(name)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    deployment, _ = _deploy(args)
    report = deployment.run_until_converged(args.max_rounds)
    print(f"converged: {report.converged} (executed {report.executed} rounds)")
    for layer, rounds in sorted(report.rounds.items()):
        print(f"  {layer:>16}: {rounds}")
    if report.executed:
        split = deployment.bandwidth_split(report.executed)
        population = max(1, deployment.network.alive_count())
        print(
            "bandwidth/node/round — baseline: "
            f"{sum(split['baseline']) / report.executed / population:.0f} B, "
            f"overhead: {sum(split['overhead']) / report.executed / population:.0f} B"
        )
    if args.summary:
        from repro.analysis import topology_summary

        print(f"summary: {topology_summary(deployment)}")
    return 0 if report.converged else 1


def _cmd_export(args: argparse.Namespace) -> int:
    deployment, _ = _deploy(args)
    report = deployment.run_until_converged(args.max_rounds)
    if not report.converged:
        print(f"warning: not converged within {args.max_rounds} rounds", file=sys.stderr)
    from repro.analysis import to_dot, to_edge_list

    output = to_dot(deployment) if args.format == "dot" else to_edge_list(deployment)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(output)
        print(f"wrote {args.output}")
    else:
        print(output, end="")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.catalogue import EXPERIMENTS, format_result, run_experiment

    print(format_result(run_experiment(EXPERIMENTS[args.target])))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    """``repro faults`` and ``repro heal``: run scenario rows and report.

    Exit 0 iff every fault run healed / every managed run recovered.
    """
    from repro.heal.scenarios import (
        FAULT_ROWS,
        format_heal_matrix,
        format_scenario,
        run_heal_matrix,
        run_scenario,
        write_heal_bench,
    )

    heal = args.command == "heal"
    heal_matrix = heal and args.scenario == "matrix"
    if heal_matrix and args.obs is not None:
        print(
            "warning: --obs is ignored for the matrix (each run has its "
            "own collector)",
            file=sys.stderr,
        )
    collector = None
    alerts = getattr(args, "alerts", None)
    if (args.obs is not None or alerts is not None) and not heal_matrix:
        from repro.obs.collector import Collector

        collector = Collector(gauge_every=args.gauge_every)
    results = []
    if heal_matrix:
        pairs = run_heal_matrix(
            n_nodes=args.nodes, seed=args.seed, budget=args.budget,
            degree=args.degree,
        )
        print(format_heal_matrix(pairs))
        results = [managed for managed, _ in pairs]
        print(f"wrote {write_heal_bench(pairs, json_path=args.output)}")
    else:
        if not heal:
            names = FAULT_ROWS if args.scenario == "matrix" else (args.scenario,)
            runs = [(name, False) for name in names]
        elif args.scenario == "partition-churn":
            runs = [(args.scenario, True)]
        else:
            flavors = (True, False) if args.compare else (not args.unmanaged,)
            runs = [(args.scenario, managed) for managed in flavors]
        options = {"budget": args.budget} if heal else {}
        if heal and args.scenario != "partition-churn":
            options["degree"] = args.degree  # a corruption severity
        for index, (name, managed) in enumerate(runs):
            # An unmanaged heal run is the baseline: no telemetry export, no
            # say in the exit code.
            counted = managed or not heal
            if index:
                print()
            result = run_scenario(
                name, n_nodes=args.nodes, seed=args.seed, managed=managed,
                collector=collector if counted else None, **options,
            )
            print(format_scenario(result))
            if counted:
                results.append(result)
    if heal and args.timeline is not None:
        count = _write_timeline(args.timeline, results)
        print(f"wrote {args.timeline} ({count} timeline entr(y/ies))")
    if collector is not None:
        if args.obs is not None:
            _export(collector, args.obs, args.obs + ".prom")
        if alerts is not None:
            _write_alerts(alerts, collector)
    return 0 if all(result.verdict == "recovered" for result in results) else 1


def _write_timeline(path: str, results) -> int:
    """Remediation timelines of ``results`` as JSONL; returns entry count."""
    import json

    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for result in results:
            for entry in result.timeline:
                handle.write(
                    json.dumps(
                        {"mode": result.name, "seed": result.seed, **entry},
                        sort_keys=True,
                    )
                    + "\n"
                )
                count += 1
    return count


def _export(collector, jsonl: Optional[str], prom: Optional[str]) -> None:
    """Write the collector's event stream (JSONL) and Prometheus snapshot,
    each when its path is given."""
    from repro.obs.export import write_jsonl, write_prometheus

    for path, write in ((jsonl, write_jsonl), (prom, write_prometheus)):
        if path:
            write(path, collector)
            print(f"wrote {path}")


def _cmd_report(args: argparse.Namespace) -> int:
    import os as _os

    from repro.obs.registry import MetricsRegistry

    if _os.path.isdir(args.file):
        return _report_swarm_dir(args.file)
    if args.file.endswith(".jsonl"):
        from repro.obs.export import read_jsonl

        registry = MetricsRegistry.from_events(read_jsonl(args.file))
        print(registry.render())
        return 0
    flow = None
    if args.flow:
        from repro.obs.flow import FlowTracer

        flow = FlowTracer()
    deployment, collector = _deploy(args, flow=flow)
    collector.profile_layers = args.profile
    report = deployment.run_until_converged(args.max_rounds)
    registry = MetricsRegistry.for_deployment(deployment, report, collector)
    if args.profile:
        registry.add_profile(collector)
    print(registry.render())
    _export(collector, args.jsonl, args.prom)
    return 0 if report.converged else 1


def _report_swarm_dir(status_dir: str) -> int:
    """``repro report <swarm-dir>``: the post-mortem view of a swarm, from
    one observer poll of its statuses and its merged node streams."""
    from repro.runtime.swarm import SwarmObserver, merge_node_events, swarm_view

    observer = SwarmObserver.attach(status_dir)
    observer.poll()
    events = merge_node_events(status_dir)
    print(swarm_view(observer.report(), observer.collector, events).render())
    return 0 if observer.converged else 1


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.obs.flow import FlowTracer
    from repro.obs.watch import render_dashboard

    if args.swarm:
        return _watch_swarm(args)
    if args.file is None:
        print("error: a topology file (or --swarm DIR) is required", file=sys.stderr)
        return 2
    deployment, collector = _deploy(args, flow=FlowTracer(), health=True)
    health = collector.health
    engine = None
    if args.heal:
        from repro.heal.engine import RemediationEngine

        engine = RemediationEngine.for_deployment(deployment, health)
    title = f"repro watch {args.file}"

    def frame() -> str:
        return render_dashboard(
            collector,
            health,
            round_index=deployment.engine.round,
            title=title,
            heal=engine,
        )

    if args.once:
        deployment.run_until_converged(args.max_rounds)
        print(frame(), end="")
    else:
        clear = sys.stdout.isatty()
        executed = 0
        while executed < args.max_rounds:
            chunk = min(args.interval, args.max_rounds - executed)
            ran = deployment.run_until_converged(chunk).executed
            executed += ran
            if clear:
                sys.stdout.write("\x1b[2J\x1b[H")
            print(frame())
            if ran < chunk:
                break  # every layer converged
    if args.alerts:
        _write_alerts(args.alerts, collector)
    return 0 if deployment.tracker.report().converged else 1


def _watch_swarm(args: argparse.Namespace) -> int:
    """Attach the watch dashboard to a running (or finished) swarm directory."""
    from repro.obs.watch import render_dashboard
    from repro.runtime.swarm import SwarmObserver

    observer = SwarmObserver.attach(args.swarm, wait=10.0)
    title = f"repro watch --swarm {args.swarm} ({observer.shape}-{observer.n_nodes})"
    clear = sys.stdout.isatty() and not args.once
    for statuses in [observer.poll()] if args.once else observer.follow():
        if clear:
            sys.stdout.write("\x1b[2J\x1b[H")
        print(
            render_dashboard(
                observer.collector,
                observer.monitor,
                round_index=observer.round,
                title=title,
                nodes=statuses,
            ),
            end="",
        )
    if args.alerts:
        _write_alerts(args.alerts, observer.collector)
    return 0 if observer.converged else 1


def _cmd_swarm(args: argparse.Namespace) -> int:
    from repro.runtime.swarm import merge_node_events, run_swarm, swarm_view

    def progress(poll: int, statuses, verdict: str) -> None:
        seen = max((r.get("round", 0) for r in statuses.values()), default=0)
        sys.stdout.write(
            f"\rround {seen:>3}  nodes {len(statuses)}/{args.nodes}  "
            f"verdict {verdict}   "
        )
        sys.stdout.flush()

    report, collector = run_swarm(
        n_nodes=args.nodes,
        shape=args.shape,
        seed=args.seed,
        round_interval=args.round_interval,
        max_rounds=args.max_rounds,
        status_dir=args.status_dir,
        progress=None if args.quiet else progress,
    )
    if not args.quiet:
        sys.stdout.write("\n")
    events = merge_node_events(report.status_dir)
    print(swarm_view(report, collector, events).render())
    if args.bench:
        report.write(args.bench)
        print(f"wrote {args.bench}")
    _export(collector, None, args.prom)
    if args.jsonl:
        from repro.obs.export import write_jsonl

        write_jsonl(args.jsonl, events)
        print(f"wrote {args.jsonl} ({len(events)} event(s))")
    print(f"status dir: {report.status_dir}")
    return 0 if report.converged and report.verdict == "healthy" else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_run_options(
    parser: argparse.ArgumentParser,
    nodes: Optional[int] = None,
    seed: int = 1,
    max_rounds: Optional[int] = 120,
    gauge_every: Optional[int] = None,
) -> None:
    """``--nodes`` / ``--seed`` and, unless their default is ``None``,
    ``--max-rounds`` / ``--gauge-every``, with this command's defaults."""
    parser.add_argument("--nodes", type=int, default=nodes)
    parser.add_argument("--seed", type=int, default=seed)
    if max_rounds is not None:
        parser.add_argument("--max-rounds", type=int, default=max_rounds)
    if gauge_every is not None:
        parser.add_argument(
            "--gauge-every",
            type=int,
            default=gauge_every,
            help="structural gauge sampling period in rounds, 0 disables "
            f"(default: {gauge_every})",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Assembly-based construction of complex distributed topologies",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    validate = subparsers.add_parser("validate", help="check a DSL topology file")
    validate.add_argument("file")
    validate.set_defaults(func=_cmd_validate)

    lint = subparsers.add_parser(
        "lint", help="statically verify topology files and/or the framework itself"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help=".topo files or directories to scan recursively",
    )
    lint.add_argument(
        "--self-check",
        action="store_true",
        help="run the determinism (DET), shard-safety (SHD) and peer-seam "
        "(PEER) rules over the repro package source",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="diagnostic output format (default: text)",
    )
    lint.set_defaults(func=_cmd_lint)

    show = subparsers.add_parser("show", help="pretty-print a topology file")
    show.add_argument("file")
    show.set_defaults(func=_cmd_show)

    shapes = subparsers.add_parser("shapes", help="list available shapes")
    shapes.set_defaults(func=_cmd_shapes)

    run = subparsers.add_parser("run", help="deploy a topology and converge it")
    run.add_argument("file")
    _add_run_options(run)
    run.add_argument("--summary", action="store_true", help="print graph metrics")
    run.set_defaults(func=_cmd_run)

    export = subparsers.add_parser("export", help="dump the realized overlay")
    export.add_argument("file")
    export.add_argument("--format", choices=("dot", "edges"), default="dot")
    export.add_argument("--output", default=None)
    _add_run_options(export)
    export.set_defaults(func=_cmd_export)

    bench = subparsers.add_parser(
        "bench", help="regenerate a paper figure, experiment or ablation table"
    )
    from repro.experiments.catalogue import EXPERIMENTS

    bench.add_argument("target", choices=tuple(EXPERIMENTS))
    bench.set_defaults(func=_cmd_bench)

    from repro.heal.scenarios import FAULT_ROWS

    faults = subparsers.add_parser(
        "faults", help="run a fault-injection scenario and report recovery"
    )
    faults.add_argument(
        "--scenario",
        choices=FAULT_ROWS + ("matrix",),
        default="partition",
        help="which fault to inject ('matrix' runs the whole suite)",
    )
    _add_run_options(faults, nodes=128, max_rounds=None, gauge_every=5)
    faults.add_argument(
        "--obs",
        default=None,
        metavar="PATH",
        help="capture telemetry and write the event stream to PATH (JSONL; "
        "a Prometheus snapshot lands at PATH.prom)",
    )
    faults.add_argument(
        "--alerts",
        default=None,
        metavar="PATH",
        help="write just the alert/alert_cleared events (JSONL) to PATH "
        "(attaches the health monitor even without --obs)",
    )
    faults.set_defaults(func=_cmd_scenario)

    from repro.heal.harness import corruption_modes

    heal = subparsers.add_parser(
        "heal",
        help="start from a corrupted overlay state and close the "
        "observe-decide-act loop",
    )
    heal.add_argument(
        "--scenario",
        choices=tuple(corruption_modes()) + ("matrix", "partition-churn"),
        default="matrix",
        help="corruption mode to start from; 'matrix' pairs managed vs "
        "unmanaged across all modes, 'partition-churn' runs the compound "
        "end-to-end scenario (default: matrix)",
    )
    _add_run_options(heal, nodes=64, seed=7, max_rounds=None, gauge_every=5)
    heal.add_argument(
        "--degree",
        type=float,
        default=None,
        help="corruption severity in [0, 1] (default: per-mode preset)",
    )
    heal.add_argument(
        "--budget",
        type=int,
        default=80,
        help="re-convergence round budget after corruption (default: 80)",
    )
    flavor = heal.add_mutually_exclusive_group()
    flavor.add_argument(
        "--compare",
        action="store_true",
        help="also run the unmanaged baseline (single-mode scenarios)",
    )
    flavor.add_argument(
        "--unmanaged",
        action="store_true",
        help="run only the unmanaged baseline (single-mode scenarios)",
    )
    heal.add_argument(
        "--timeline",
        default=None,
        metavar="PATH",
        help="write the remediation timeline(s) (JSONL) to PATH",
    )
    heal.add_argument(
        "--output",
        default="BENCH_heal.json",
        help="stabilization numbers path for the matrix "
        "(default: BENCH_heal.json)",
    )
    heal.add_argument(
        "--obs",
        default=None,
        metavar="PATH",
        help="capture telemetry of a single-scenario run and write the "
        "event stream to PATH (JSONL; a Prometheus snapshot lands at "
        "PATH.prom)",
    )
    heal.set_defaults(func=_cmd_scenario)

    report = subparsers.add_parser(
        "report",
        help="converge a topology and print the consolidated metrics "
        "(also accepts a .jsonl event stream or a swarm status dir)",
    )
    report.add_argument(
        "file",
        help="a .topo file to converge, a .jsonl stream to summarize, or a "
        "swarm status directory to post-mortem (merged node-*.jsonl + "
        "flow/RTT)",
    )
    _add_run_options(report, gauge_every=1)
    report.add_argument(
        "--flow",
        action="store_true",
        help="trace causal propagation (per-layer latency distributions, "
        "information-flow graph, convergence critical path)",
    )
    report.add_argument(
        "--profile",
        action="store_true",
        help="time each layer's protocol steps and append the sorted "
        "self-time span table",
    )
    report.add_argument(
        "--jsonl", default=None, metavar="PATH", help="write the event stream"
    )
    report.add_argument(
        "--prom",
        default=None,
        metavar="PATH",
        help="write a Prometheus-style text snapshot",
    )
    report.set_defaults(func=_cmd_report)

    swarm = subparsers.add_parser(
        "swarm",
        help="launch a local UDP swarm (one process per node) and supervise "
        "it to convergence",
    )
    _add_run_options(swarm, nodes=8)
    swarm.add_argument(
        "--shape",
        default="ring",
        help="target overlay shape the swarm must converge to (default: ring)",
    )
    swarm.add_argument(
        "--round-interval",
        type=float,
        default=0.2,
        help="seconds between gossip rounds on each node (default: 0.2)",
    )
    swarm.add_argument(
        "--status-dir",
        default=None,
        metavar="DIR",
        help="directory for per-node status files (default: a fresh temp "
        "dir; pass it to 'repro watch --swarm' to attach)",
    )
    swarm.add_argument(
        "--bench",
        default=None,
        metavar="PATH",
        help="write the swarm report (verdict, rounds, per-node bandwidth, "
        "flow, RTT) to PATH as one JSON document",
    )
    swarm.add_argument(
        "--prom",
        default=None,
        metavar="PATH",
        help="write a Prometheus-style snapshot of the supervisor telemetry",
    )
    swarm.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="merge every node's incremental node-*.jsonl stream into one "
        "chronological event file at PATH",
    )
    swarm.add_argument(
        "--quiet", action="store_true", help="suppress the live progress line"
    )
    swarm.set_defaults(func=_cmd_swarm)

    watch = subparsers.add_parser(
        "watch",
        help="live terminal view of a converging run (health + flow included)",
    )
    watch.add_argument(
        "file",
        nargs="?",
        default=None,
        help="topology file to run (omit when attaching with --swarm)",
    )
    source = watch.add_mutually_exclusive_group()
    source.add_argument(
        "--swarm",
        default=None,
        metavar="DIR",
        help="attach to a running UDP swarm's status directory instead of "
        "simulating a topology",
    )
    _add_run_options(watch, gauge_every=1)
    watch.add_argument(
        "--interval",
        type=_positive_int,
        default=5,
        help="rounds between dashboard refreshes, >= 1 (default: 5)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="render a single snapshot after the run instead of live frames",
    )
    watch.add_argument(
        "--alerts",
        default=None,
        metavar="PATH",
        help="write the alert/alert_cleared event stream (JSONL) to PATH",
    )
    source.add_argument(
        "--heal",
        action="store_true",
        help="attach the remediation engine and show its panel (verdict, "
        "active incidents, their attempts and next retry round)",
    )
    watch.set_defaults(func=_cmd_watch)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
