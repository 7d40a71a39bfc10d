"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiment <id>``
    Run one of the reconstructed experiments (E1..E15, A1..A4) and print
    the rendered table/series; optionally save the structured result as
    JSON or its table as CSV.
``run``
    One filtered-DGD execution on a generated regression instance, with
    the filter, attack, and system parameters as flags.
``redundancy``
    Measure the 2f-redundancy margin of a generated instance across a
    noise sweep.
``sweep``
    Execute a (filter × attack × f × seed) grid through the batched,
    process-pooled sweep engine and print the per-configuration summary.
``profile``
    Run one configured scenario with telemetry enabled and print the
    roll-up: p50/p95 span latencies, rounds/sec, and the filter's
    elimination precision/recall against the ground-truth Byzantine set.
``bench run|compare|gate|list``
    The continuous-benchmarking harness: execute registered benchmarks
    into schema'd ``BENCH_<name>.json`` records, compare/gate them
    against a baseline store with the deterministic regression policy
    (exit 0 ok / 1 regression / 2 usage), and list the registry.
``trace report``
    Analyze a telemetry/sweep JSONL stream (or a directory of streams)
    into hotspot attribution, rounds/sec trends, and anomaly flags.
``tournament run|leaderboard|report``
    The adversary tournament: run the full filter × attack-bank
    cross-product (round-robin with best-response re-tuning) through the
    cached sweep layer, persist a schema'd ``TOURNAMENT_<name>.json``
    artifact, and render its Elo robustness leaderboard (exit 0 ok /
    1 failed matches / 2 usage, the bench convention).
``serve`` / ``submit`` / ``status``
    The long-lived aggregation service: ``serve`` runs the persistent job
    server (unix socket or TCP) multiplexing run/sweep/bench jobs from
    many clients onto one shared process pool and cell cache; ``submit``
    and ``status`` are its thin clients (exit 0 ok / 1 rejected-or-failed
    job / 2 usage-or-unreachable).
``list``
    Show the registered gradient filters, attacks, and experiments.

Every command ends on a library error
(:class:`~repro.exceptions.ReproError`) the same way: ``error: <message>``
on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import __version__
from repro.aggregators.registry import available_filters
from repro.analysis.metrics import final_error
from repro.analysis.reporting import format_table
from repro.analysis.serialization import experiment_to_csv, save_experiment
from repro.attacks.registry import available_attacks, buildable_attacks, make_attack
from repro.core.redundancy import measure_redundancy_margin
from repro.exceptions import (
    AdmissionRejectedError,
    BenchSchemaError,
    InvalidParameterError,
    ReproError,
    TopologyInfeasibilityError,
)
from repro.experiments.common import regression_setup
from repro.experiments.sweep import RegressionGrid
from repro.experiments.tournament import TournamentConfig
from repro.problems.linear_regression import make_redundant_regression
from repro.service import ServiceConfig
from repro.service.jobs import RUN_DEFAULTS, grid_from_params
from repro.system.runner import run_dgd
from repro.system.topology import available_topologies
from repro import experiments as experiment_module

#: Experiment id → zero-argument runner.
EXPERIMENTS: Dict[str, Callable] = {
    "E1": experiment_module.run_table1,
    "E2": experiment_module.run_trajectories,
    "E3": lambda: experiment_module.run_trajectories(early_window=80),
    "E4": experiment_module.run_exact_algorithm_table,
    "E5": experiment_module.run_noise_sweep,
    "E6": experiment_module.run_fault_sweep,
    "E7": experiment_module.run_learning_eval,
    "E8": experiment_module.run_peer_vs_server,
    "E9": experiment_module.run_aggregator_scaling,
    "E10": experiment_module.run_robustness_matrix,
    "E11": experiment_module.run_replication_design,
    "E12": experiment_module.run_cwtm_dimension_sweep,
    "E13": experiment_module.run_worst_case_certification,
    "E14": experiment_module.run_heterogeneity_sweep,
    "E15": experiment_module.run_communication_costs,
    "E16": experiment_module.run_degraded_network,
    "E17": experiment_module.run_topology_resilience,
    "A1": experiment_module.run_cge_sum_vs_mean,
    "A2": experiment_module.run_step_size_ablation,
    "A3": experiment_module.run_projection_ablation,
    "A4": experiment_module.run_stochastic_step_sizes,
}


def _field_defaults(cls) -> Dict:
    """A dataclass's field defaults, by field name."""
    return {
        spec.name: spec.default
        for spec in dataclasses.fields(cls)
        if spec.default is not dataclasses.MISSING
    }


def _flag_values(cls, args, **overrides) -> Dict:
    """The parsed flags named after ``cls``'s fields, then ``overrides``."""
    values = {
        spec.name: getattr(args, spec.name)
        for spec in dataclasses.fields(cls)
        if hasattr(args, spec.name)
    }
    values.update(overrides)
    return values


def _run_flags() -> argparse.ArgumentParser:
    """The run-job flags of ``run``, ``profile`` and ``submit run``: one per
    :data:`RUN_DEFAULTS` key, named after it and defaulting to it."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--n", type=int, default=RUN_DEFAULTS["n"],
                       help="number of agents")
    flags.add_argument("--d", type=int, default=RUN_DEFAULTS["d"],
                       help="problem dimension")
    flags.add_argument("--f", type=int, default=RUN_DEFAULTS["f"],
                       help="fault bound")
    flags.add_argument("--noise", type=float, dest="noise_std",
                       default=RUN_DEFAULTS["noise_std"],
                       help="observation noise std")
    flags.add_argument("--filter", default=RUN_DEFAULTS["filter"],
                       choices=available_filters())
    flags.add_argument("--attack", default=RUN_DEFAULTS["attack"],
                       choices=buildable_attacks())
    flags.add_argument("--iterations", type=int,
                       default=RUN_DEFAULTS["iterations"])
    flags.add_argument("--seed", type=int, default=RUN_DEFAULTS["seed"])
    return flags


def _grid_flags() -> argparse.ArgumentParser:
    """The grid flags of ``sweep`` and ``submit sweep``, each named after
    the :class:`RegressionGrid` field it sets and defaulting to it."""
    grid = _field_defaults(RegressionGrid)
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--filters", nargs="+", default=list(grid["filters"]),
                       choices=available_filters())
    flags.add_argument("--attacks", nargs="+", default=list(grid["attacks"]),
                       choices=buildable_attacks())
    flags.add_argument("--fault-counts", type=int, nargs="+",
                       default=list(grid["fault_counts"]))
    flags.add_argument("--num-seeds", type=int, default=grid["num_seeds"])
    flags.add_argument("--master-seed", type=int, default=grid["master_seed"])
    flags.add_argument("--n", type=int, default=grid["n"])
    flags.add_argument("--d", type=int, default=grid["d"])
    flags.add_argument("--noise", type=float, dest="noise_std",
                       default=grid["noise_std"])
    flags.add_argument("--iterations", type=int, default=grid["iterations"])
    return flags


def _engine_flags() -> argparse.ArgumentParser:
    """The :class:`~repro.experiments.sweep.SweepEngine` flags of ``sweep``
    and ``tournament run``."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--sequential", action="store_true",
                       help="disable the process pool (single-process execution)")
    flags.add_argument("--workers", type=int, default=None, help="pool size")
    flags.add_argument("--cache-dir", default=None,
                       help="directory for the on-disk result cache (off by "
                       "default; required for --resume)")
    flags.add_argument("--events", default=None, metavar="PATH",
                       help="write a JSONL event log (cache hits/misses, "
                       "retries, quarantines, per-chunk wall time) and print "
                       "its summary")
    flags.add_argument("--resume", action="store_true",
                       help="resume an interrupted run from its cache: "
                       "results with a valid cache entry are served as cache "
                       "hits, the rest is recomputed (requires --cache-dir)")
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-Tolerance in Distributed Optimization: The Case of "
        "Redundancy (PODC 2020) — reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    run_flags, grid_flags, engine_flags = _run_flags(), _grid_flags(), _engine_flags()

    experiment = commands.add_parser(
        "experiment", help="run a reconstructed table/figure experiment"
    )
    experiment.add_argument("id", choices=sorted(EXPERIMENTS), help="experiment id")
    experiment.add_argument("--json", metavar="PATH", help="save the structured result")
    experiment.add_argument("--csv", metavar="PATH", help="save the table rows as CSV")

    run = commands.add_parser("run", parents=[run_flags],
                              help="one filtered-DGD execution")
    run.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="stream per-round telemetry records (JSONL) to PATH",
    )
    decentralized = run.add_argument_group(
        "decentralized architecture",
        "run the sparse-topology decentralized engine (per-neighborhood "
        "Byzantine filtering; needs deg_i >= 2 f_i) instead of the "
        "server-based runner; --drop-prob/--delay/--delay-prob/"
        "--corrupt-prob/--corrupt-mode then act per directed edge",
    )
    decentralized.add_argument(
        "--architecture", choices=["server", "decentralized"],
        default="server",
        help="system architecture (default: server-based)",
    )
    decentralized.add_argument(
        "--topology", default="ring", choices=available_topologies(),
        help="communication graph for --architecture decentralized",
    )
    decentralized.add_argument(
        "--hops", type=int, default=1,
        help="ring neighbor radius (ring topology only, default 1)",
    )
    decentralized.add_argument(
        "--degree", type=int, default=6,
        help="random-regular degree (random-regular topology only)",
    )
    decentralized.add_argument(
        "--topology-seed", type=int, default=0,
        help="seed of the (deterministic) graph generator",
    )
    decentralized.add_argument(
        "--aggregation", default="cwtm", choices=["cwtm", "cge", "mean"],
        help="per-neighborhood aggregation rule (default cwtm)",
    )

    degraded = run.add_argument_group(
        "degraded network",
        "partially-synchronous fault injection; any of these flags switches "
        "the execution to the self-healing runtime (deterministic in "
        "--fault-seed)",
    )
    degraded.add_argument(
        "--drop-prob", type=float, default=0.0,
        help="per-message loss probability on every agent link",
    )
    degraded.add_argument(
        "--delay", type=int, default=0, metavar="B",
        help="partial-synchrony bound: messages may arrive up to B rounds late",
    )
    degraded.add_argument(
        "--delay-prob", type=float, default=None,
        help="per-message delay probability (defaults to 0.25 when --delay > 0)",
    )
    degraded.add_argument(
        "--duplicate-prob", type=float, default=0.0,
        help="per-message duplication probability",
    )
    degraded.add_argument(
        "--corrupt-prob", type=float, default=0.0,
        help="per-gradient payload-corruption probability",
    )
    degraded.add_argument(
        "--corrupt-mode", default="nan", choices=["nan", "inf", "bitflip"],
        help="payload corruption mode",
    )
    degraded.add_argument(
        "--stragglers", type=int, default=0, metavar="K",
        help="make the K highest-id honest agents stragglers",
    )
    degraded.add_argument(
        "--straggle-every", type=int, default=4,
        help="straggler cadence: extra latency every Nth round",
    )
    degraded.add_argument(
        "--straggle-delay", type=int, default=1,
        help="extra rounds of latency when the straggler schedule fires",
    )
    degraded.add_argument(
        "--crash-recover", default=None, metavar="ID:CRASH[:RECOVER]",
        help="agent ID goes down at round CRASH and returns at RECOVER "
        "(omit RECOVER for a permanent endpoint crash)",
    )
    degraded.add_argument(
        "--fault-seed", type=int, default=0,
        help="determinism seed of every network fault draw",
    )
    degraded.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="checkpoint the run state atomically to PATH; an existing "
        "compatible checkpoint is resumed bit-identically",
    )
    degraded.add_argument(
        "--checkpoint-every", type=int, default=25, metavar="ROUNDS",
        help="checkpoint cadence (default 25)",
    )

    profile = commands.add_parser(
        "profile", parents=[run_flags],
        help="run one scenario with telemetry and print the profiling roll-up",
    )
    profile.add_argument(
        "--runs", type=int, default=1,
        help="replicate runs of the vectorized batch engine; one run uses "
        "--seed, more derive their seeds from it",
    )
    profile.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="also keep the raw JSONL record stream at PATH",
    )
    profile.add_argument(
        "--json", metavar="PATH", default=None,
        help="save the roll-up summary (checksummed atomic write)",
    )

    redundancy = commands.add_parser(
        "redundancy", help="measure the redundancy margin over a noise sweep"
    )
    redundancy.add_argument("--n", type=int, default=6)
    redundancy.add_argument("--d", type=int, default=2)
    redundancy.add_argument("--f", type=int, default=1)
    redundancy.add_argument(
        "--noise", type=float, nargs="+", default=[0.0, 0.01, 0.05, 0.1]
    )
    redundancy.add_argument("--seed", type=int, default=0)

    sweep = commands.add_parser(
        "sweep", parents=[grid_flags, engine_flags],
        help="run a (filter x attack x f x seed) grid via the sweep engine",
    )
    sweep.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-chunk wall-clock budget; hung chunks are retried in a "
        "fresh pool (unlimited by default)",
    )
    sweep.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="failed attempts allowed per chunk before quarantine (default 2)",
    )
    sweep.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="write per-round run telemetry, one JSONL stream per "
        "(f, filter, attack) group, into DIR (same event schema as --events)",
    )

    bench = commands.add_parser(
        "bench",
        help="continuous benchmarking: run, compare, and gate BENCH_*.json records",
    )
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)

    def _add_selection(sub):
        sub.add_argument("names", nargs="*", help="registered bench names")
        sub.add_argument("--all", action="store_true", dest="select_all",
                         help="select every registered bench")
        sub.add_argument("--tag", default=None,
                         help="select benches carrying this tag (e.g. smoke, paper)")

    bench_run = bench_commands.add_parser(
        "run", help="execute benches and write schema'd BENCH_<name>.json records"
    )
    _add_selection(bench_run)
    bench_run.add_argument("--repeats", type=int, default=3,
                           help="timing repeats per bench (headline is min-of-k)")
    bench_run.add_argument("--output-dir", default=".",
                           help="where BENCH_<name>.json records land (default .)")
    bench_run.add_argument("--telemetry-dir", default=None, metavar="DIR",
                           help="also keep each repeat's raw telemetry JSONL stream")
    bench_run.add_argument("--no-memory", action="store_true",
                           help="disable tracemalloc peak-memory tracking")

    bench_compare = bench_commands.add_parser(
        "compare",
        help="compare existing BENCH_*.json records against a baseline store",
    )
    _add_selection(bench_compare)
    bench_compare.add_argument("--baseline-dir", default="benchmarks/baselines")
    bench_compare.add_argument("--current-dir", default=".",
                               help="directory holding the candidate records")
    _add_policy_flags(bench_compare)

    bench_gate = bench_commands.add_parser(
        "gate",
        help="run benches fresh and fail (exit 1) on perf/quality regression",
    )
    _add_selection(bench_gate)
    bench_gate.add_argument("--baseline-dir", default="benchmarks/baselines")
    bench_gate.add_argument("--repeats", type=int, default=3)
    bench_gate.add_argument("--output-dir", default=None,
                            help="also persist the fresh records here")
    bench_gate.add_argument("--strict-missing", action="store_true",
                            help="treat a bench without a baseline as a failure")
    _add_policy_flags(bench_gate)

    bench_list = bench_commands.add_parser(
        "list", help="show the registered benches, their tags and workloads"
    )
    bench_list.add_argument("--tag", default=None)

    tournament = commands.add_parser(
        "tournament",
        help="adversary tournament: full filter x attack cross-product "
        "with an Elo robustness leaderboard",
    )
    tournament_commands = tournament.add_subparsers(
        dest="tournament_command", required=True
    )
    defaults = _field_defaults(TournamentConfig)
    tournament_run = tournament_commands.add_parser(
        "run", parents=[engine_flags],
        help="run the cross-product through the cached sweep layer and "
        "write TOURNAMENT_<name>.json",
    )
    tournament_run.add_argument("--name", default=defaults["name"],
                                help="artifact name (TOURNAMENT_<name>.json)")
    tournament_run.add_argument(
        "--filters", nargs="+", default=None, choices=available_filters(),
        help="roster (default: every registered filter)",
    )
    tournament_run.add_argument(
        "--attacks", nargs="+", default=None, metavar="NAME",
        help="subset of the default attack bank by bank name "
        "(default: the whole bank)",
    )
    tournament_run.add_argument("--rounds", type=int,
                                default=defaults["rounds"],
                                help="tournament rounds (best-response "
                                "re-tuning happens between rounds)")
    tournament_run.add_argument("--num-seeds", type=int,
                                default=defaults["num_seeds"])
    tournament_run.add_argument("--master-seed", type=int,
                                default=defaults["master_seed"])
    tournament_run.add_argument("--n", type=int, default=defaults["n"])
    tournament_run.add_argument("--d", type=int, default=defaults["d"])
    tournament_run.add_argument("--f", type=int, default=defaults["f"])
    tournament_run.add_argument("--noise", type=float, dest="noise_std",
                                default=defaults["noise_std"])
    tournament_run.add_argument("--iterations", type=int,
                                default=defaults["iterations"])
    tournament_run.add_argument("--win-threshold", type=float,
                                default=defaults["win_threshold"],
                                help="final distance to x_H at or below "
                                "which the filter wins")
    tournament_run.add_argument("--loss-threshold", type=float,
                                default=defaults["loss_threshold"],
                                help="final distance at or above which the "
                                "attack wins")
    tournament_run.add_argument("--out-dir", default=".",
                                help="where the artifact lands (default .)")

    tournament_board = tournament_commands.add_parser(
        "leaderboard", help="render the Elo leaderboard of an artifact"
    )
    tournament_board.add_argument("path", help="a TOURNAMENT_*.json artifact")

    tournament_report = tournament_commands.add_parser(
        "report",
        help="full report: leaderboard, per-round re-tunes, and the "
        "most decisive matches",
    )
    tournament_report.add_argument("path", help="a TOURNAMENT_*.json artifact")

    trace = commands.add_parser(
        "trace", help="analyze telemetry/sweep JSONL streams"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    trace_report = trace_commands.add_parser(
        "report",
        help="hotspots, rounds/sec trend, and anomaly flags for a stream",
    )
    trace_report.add_argument("path",
                              help="a telemetry JSONL file, or a directory of them")
    trace_report.add_argument("--json", metavar="PATH", default=None,
                              help="save the structured report(s) (atomic write)")
    trace_report.add_argument("--windows", type=int, default=8,
                              help="windows for the rounds/sec trend (default 8)")
    trace_report.add_argument("--fail-on-anomaly", action="store_true",
                              help="exit 1 when any stream carries anomaly flags")

    trace_export = trace_commands.add_parser(
        "export",
        help="export traced spans from JSONL stream(s) to a viewer format",
    )
    trace_export.add_argument("path",
                              help="a telemetry JSONL file, or a directory "
                              "of them (e.g. a service job directory)")
    trace_export.add_argument("--format", choices=["chrome-trace"],
                              default="chrome-trace",
                              help="output format (chrome://tracing / "
                              "Perfetto JSON)")
    trace_export.add_argument("--output", "-o", metavar="PATH",
                              default="trace.json",
                              help="where to write the artifact "
                              "(default trace.json)")

    trace_flame = trace_commands.add_parser(
        "flame",
        help="render the reconstructed cross-process span tree as a "
        "text flame view",
    )
    trace_flame.add_argument("path",
                             help="a telemetry JSONL file, or a directory "
                             "of them")

    defaults = _field_defaults(ServiceConfig)
    serve = commands.add_parser(
        "serve",
        help="long-lived aggregation service: accept run/sweep/bench jobs "
        "over HTTP or a unix socket onto one shared pool and cell cache",
    )
    serve.add_argument("--state-dir", required=True, metavar="DIR",
                       help="durable root: job manifests, event streams, "
                       "results, and the shared cell cache live here")
    serve.add_argument("--socket", dest="socket_path",
                       default=defaults["socket_path"], metavar="PATH",
                       help="unix socket to listen on "
                       "(default: <state-dir>/repro.sock)")
    serve.add_argument("--host", default=defaults["host"],
                       help="TCP host to bind (needs --port)")
    serve.add_argument("--port", type=int, default=defaults["port"],
                       help="TCP port to bind (needs --host)")
    serve.add_argument("--job-slots", type=int, default=defaults["job_slots"],
                       metavar="N",
                       help="jobs executed concurrently (default %(default)s)")
    serve.add_argument("--pool-workers", type=int,
                       default=defaults["pool_workers"], metavar="N",
                       help="worker processes in the shared pool")
    serve.add_argument("--max-queue", type=int, default=defaults["max_queue"],
                       metavar="N",
                       help="admission bound on queued jobs "
                       "(default %(default)s)")
    serve.add_argument("--per-client", type=int,
                       default=defaults["per_client"], metavar="N",
                       help="jobs one client may have queued or running "
                       "(default %(default)s)")
    serve.add_argument("--sequential", action="store_true",
                       help="run jobs without a process pool")
    serve.add_argument("--timeout", type=float, default=defaults["timeout"],
                       metavar="SECONDS", help="per-chunk wall-clock budget")
    serve.add_argument("--retries", type=int, default=defaults["retries"],
                       metavar="N",
                       help="failed attempts per chunk before quarantine")
    serve.add_argument("--job-ttl", type=float, default=defaults["job_ttl"],
                       metavar="SECONDS",
                       help="GC terminal jobs (manifest, events, result) "
                       "older than this; queued/running jobs are never "
                       "touched (default: keep forever)")

    submit = commands.add_parser(
        "submit", help="submit a job to a running `repro serve`"
    )
    _add_service_endpoint_flags(submit)
    submit.add_argument("--client", default="anonymous",
                        help="client name for per-tenant admission caps")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs first (default 0)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes and print the "
                        "result summary (exit 1 if the job failed)")
    submit.add_argument("--wait-timeout", type=float, default=600.0,
                        metavar="SECONDS",
                        help="give up waiting after this long (default 600)")
    submit_commands = submit.add_subparsers(dest="submit_command",
                                            required=True)

    submit_sweep = submit_commands.add_parser(
        "sweep", parents=[grid_flags],
        help="a (filter x attack x f x seed) grid job",
    )
    submit_sweep.add_argument("--telemetry", action="store_true",
                              help="keep per-round telemetry streams under "
                              "the job directory")

    submit_commands.add_parser(
        "run", parents=[run_flags], help="one filtered-DGD execution job"
    )

    submit_bench = submit_commands.add_parser(
        "bench", help="a registered benchmark job"
    )
    submit_bench.add_argument("name", help="registered benchmark name")
    submit_bench.add_argument("--repeats", type=int, default=1)

    status = commands.add_parser(
        "status", help="inspect jobs on a running `repro serve`"
    )
    _add_service_endpoint_flags(status)
    status.add_argument("job_id", nargs="?", default=None,
                        help="one job id (omit to list every job)")
    status.add_argument("--events", action="store_true",
                        help="print the job's JSONL event stream")
    status.add_argument("--follow", action="store_true",
                        help="with --events: stream until the job finishes")
    status.add_argument("--result", action="store_true",
                        help="print the job's result document (JSON)")

    commands.add_parser("list", help="show registered filters, attacks, experiments")
    return parser


def _add_service_endpoint_flags(sub) -> None:
    """How ``repro submit`` / ``repro status`` find the server."""
    sub.add_argument("--socket", default=None, metavar="PATH",
                     help="the server's unix socket")
    sub.add_argument("--host", default=None, help="the server's TCP host")
    sub.add_argument("--port", type=int, default=None,
                     help="the server's TCP port")


def _add_policy_flags(sub) -> None:
    """The regression-policy knobs shared by ``bench compare`` and ``bench gate``."""
    sub.add_argument("--rel-tol", type=float, default=None, metavar="FRAC",
                     help="tolerated fractional wall-time slowdown (default 0.5)")
    sub.add_argument("--noise-floor", type=float, default=None, metavar="SECONDS",
                     help="timings under this are never compared (default 0.005)")
    sub.add_argument("--metric-tol", type=float, default=None, metavar="FRAC",
                     help="tolerated relative drift of quality metrics (default 0.01)")


def _command_experiment(args) -> int:
    result = EXPERIMENTS[args.id]()
    print(result.render())
    if args.json:
        path = save_experiment(result, args.json)
        print(f"saved JSON to {path}")
    if args.csv:
        from pathlib import Path

        Path(args.csv).write_text(experiment_to_csv(result))
        print(f"saved CSV to {args.csv}")
    return 0


def _parse_crash_recover(spec: str):
    """Parse ``ID:CRASH[:RECOVER]`` into ``(id, crash, recover_or_None)``."""
    parts = spec.split(":")
    try:
        if len(parts) not in (2, 3):
            raise ValueError
        values = [int(p) for p in parts]
    except ValueError:
        raise InvalidParameterError(
            f"--crash-recover expects ID:CRASH[:RECOVER], got {spec!r}"
        ) from None
    return values[0], values[1], values[2] if len(values) == 3 else None


def _build_fault_model(args, n: int):
    """Translate the degraded-network flags into a ``NetworkFaultModel``.

    Returns ``None`` when no fault flag is set (pure synchronous run).
    """
    from repro.system.netfaults import FaultProfile, NetworkFaultModel

    delay_prob = args.delay_prob
    if delay_prob is None:
        delay_prob = 0.25 if args.delay > 0 else 0.0
    base = FaultProfile(
        drop_prob=args.drop_prob,
        delay_prob=delay_prob if args.delay > 0 else 0.0,
        max_delay=args.delay,
        duplicate_prob=args.duplicate_prob,
        corrupt_prob=args.corrupt_prob,
        corrupt_mode=args.corrupt_mode,
    )
    profiles = {}
    if not base.is_null:
        profiles.update({i: base for i in range(n)})
    if args.stragglers:
        if args.stragglers < 0 or args.stragglers > n - args.f:
            raise InvalidParameterError(
                f"--stragglers must lie in [0, {n - args.f}] "
                f"(honest agents), got {args.stragglers}"
            )
        from dataclasses import replace

        for agent_id in range(n - args.stragglers, n):
            profiles[agent_id] = replace(
                profiles.get(agent_id, base),
                straggle_every=args.straggle_every,
                straggle_delay=args.straggle_delay,
            )
    if args.crash_recover:
        agent_id, crash, recover = _parse_crash_recover(args.crash_recover)
        if agent_id < 0 or agent_id >= n:
            raise InvalidParameterError(
                f"--crash-recover agent id {agent_id} out of range"
            )
        from dataclasses import replace

        profiles[agent_id] = replace(
            profiles.get(agent_id, base), crash_round=crash, recover_round=recover
        )
    if not profiles:
        return None
    return NetworkFaultModel(profiles=profiles, seed=args.fault_seed)


def _command_run_decentralized(args) -> int:
    """``repro run --architecture decentralized``: sparse-topology DGD."""
    from repro.experiments.topology_resilience import (
        _spread_faulty,
        full_local_rank_costs,
    )
    from repro.system.decentralized import run_decentralized_dgd
    from repro.system.netfaults import LinkFaultModel, LinkFaultProfile
    from repro.system.topology import make_topology

    unsupported = [
        flag for flag, value in (
            ("--duplicate-prob", args.duplicate_prob),
            ("--stragglers", args.stragglers),
            ("--crash-recover", args.crash_recover),
            ("--checkpoint", args.checkpoint),
        ) if value
    ]
    if unsupported:
        raise InvalidParameterError(
            f"{', '.join(unsupported)} not supported with "
            "--architecture decentralized (link faults cover "
            "drops/delay/corruption; churn/partitions have no flag yet)"
        )
    params = {}
    if args.topology == "ring":
        params["hops"] = args.hops
    elif args.topology == "random-regular":
        params["degree"] = args.degree
    topology = make_topology(args.topology, args.n, seed=args.topology_seed, **params)
    costs, x_star = full_local_rank_costs(args.n, args.d, instance_seed=args.seed)
    faulty = _spread_faulty(args.n, args.f)
    behavior = make_attack(args.attack) if faulty else None
    delay_prob = args.delay_prob
    if delay_prob is None:
        delay_prob = 0.25 if args.delay > 0 else 0.0
    profile = LinkFaultProfile(
        drop_prob=args.drop_prob,
        delay_prob=delay_prob if args.delay > 0 else 0.0,
        max_delay=args.delay,
        corrupt_prob=args.corrupt_prob,
        corrupt_mode=args.corrupt_mode,
    )
    link_faults = (
        None if profile.is_null
        else LinkFaultModel(default_profile=profile, seed=args.fault_seed)
    )
    telemetry = None
    if args.telemetry:
        from repro.observability import Telemetry

        telemetry = Telemetry(
            args.telemetry, byzantine_ids=tuple(faulty), reference_point=x_star
        )
    try:
        result = run_decentralized_dgd(
            costs,
            topology,
            aggregation=args.aggregation,
            faulty_ids=faulty,
            behavior=behavior,
            iterations=args.iterations,
            seed=args.seed,
            link_faults=link_faults,
            telemetry=telemetry,
        )
    except TopologyInfeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: raise the graph's connectivity (--hops / --degree / a "
            "denser --topology) or lower --f until deg_i >= 2 f_i holds",
            file=sys.stderr,
        )
        return 2
    distances = result.distances_to(x_star)[result.honest_ids]
    counters = result.counters
    rows = [
        ["topology", f"{args.topology} "
         + (f"{params}" if params else "(default params)")],
        ["aggregation", args.aggregation],
        ["attack", args.attack if faulty else "(none)"],
        ["agents / edges", f"{topology.n} / {topology.num_edges}"],
        ["degree (min..max)", f"{topology.min_degree}..{topology.max_degree}"],
        ["Byzantine (spread)", len(faulty)],
        ["max honest dist to x*", float(np.max(distances))],
        ["mean honest dist to x*", float(np.mean(distances))],
        ["dropped / delayed / corrupted edges",
         f"{counters['dropped_edges']} / {counters['delayed_edges']} / "
         f"{counters['corrupted_edges']}"],
        ["quarantined / stale reuses",
         f"{counters['quarantined']} / {counters['stale_reuses']}"],
        ["degraded agent-rounds", counters["degraded_agent_rounds"]],
        ["wall time (s)", round(result.wall_time, 3)],
    ]
    print(format_table(
        ["quantity", "value"], rows,
        title=(f"decentralized DGD on n={args.n}, f={args.f}, d={args.d}, "
               f"T={args.iterations}"),
    ))
    if telemetry is not None:
        telemetry.close()
        print(f"telemetry -> {args.telemetry} ({telemetry.emitted} records)")
    return 0


def _command_run(args) -> int:
    if args.architecture == "decentralized":
        return _command_run_decentralized(args)
    instance, faulty, x_H = regression_setup(
        args.n, args.d, args.f, args.noise_std, args.seed
    )
    behavior = make_attack(args.attack) if faulty else None
    fault_model = _build_fault_model(args, args.n)
    if args.checkpoint_every <= 0:
        raise InvalidParameterError(
            f"--checkpoint-every must be positive, got {args.checkpoint_every}"
        )
    telemetry = None
    if args.telemetry:
        from repro.observability import Telemetry

        telemetry = Telemetry(
            args.telemetry, byzantine_ids=faulty, reference_point=x_H
        )
    trace = run_dgd(
        instance.costs,
        behavior,
        gradient_filter=args.filter,
        faulty_ids=faulty,
        iterations=args.iterations,
        seed=args.seed,
        telemetry=telemetry,
        fault_model=fault_model,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
    )
    margin = measure_redundancy_margin(instance.costs, args.f).margin
    rows = [
        ["filter", args.filter],
        ["attack", args.attack if faulty else "(none)"],
        ["honest minimizer x_H", np.round(x_H, 4)],
        ["output x_out", np.round(trace.final_estimate, 4)],
        ["dist(x_H, x_out)", final_error(trace, x_H)],
        ["redundancy margin eps", margin],
        ["messages delivered", trace.messages_delivered],
        ["messages dropped", trace.messages_dropped],
        ["wall time (s)", round(trace.wall_time, 3)],
    ]
    resilience = trace.extra.get("resilience")
    if resilience is not None:
        rows += [
            ["stale reuses", resilience["stale_reuses"]],
            ["stalled rounds", resilience["stalled_rounds"]],
            ["quarantined payloads", resilience["quarantined_payloads"]],
            ["suspected agents", resilience["suspected"] or "(none)"],
            ["reinstatements", resilience["reinstatements"]],
            ["resumed from round", trace.extra.get("resumed_from_round", 0)],
        ]
    print(format_table(["quantity", "value"], rows,
                       title=f"filtered DGD on n={args.n}, f={args.f}, d={args.d}"))
    if trace.extra.get("traffic") is not None:
        from repro.analysis.reporting import format_traffic_summary

        print(format_traffic_summary(trace.extra["traffic"]))
    if args.checkpoint:
        print(f"checkpoint -> {args.checkpoint}")
    if telemetry is not None:
        telemetry.close()
        print(f"telemetry -> {args.telemetry} ({telemetry.emitted} records)")
    return 0


def _format_metric(value, digits: int = 3) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _render_telemetry_summary(summary: dict, title: str) -> str:
    """Render a :meth:`Telemetry.summary` roll-up as aligned tables."""
    blocks = []
    spans = summary.get("spans") or {}
    if spans:
        rows = [
            [
                name,
                stats["count"],
                _format_metric(stats["p50"] * 1e3),
                _format_metric(stats["p95"] * 1e3),
                _format_metric(stats["total"]),
            ]
            for name, stats in sorted(spans.items())
        ]
        blocks.append(format_table(
            ["span", "count", "p50 (ms)", "p95 (ms)", "total (s)"], rows,
            title=title,
        ))
    elimination = summary.get("elimination") or {}
    rows = [
        ["rounds recorded", summary.get("rounds", 0)],
        ["rounds / sec", _format_metric(summary.get("rounds_per_sec"), 1)],
        ["eliminated Byzantine (TP)", elimination.get("true_positives", 0)],
        ["eliminated honest (FP)", elimination.get("false_positives", 0)],
        ["surviving Byzantine (FN)", elimination.get("false_negatives", 0)],
        ["elimination precision", _format_metric(elimination.get("precision"))],
        ["elimination recall", _format_metric(elimination.get("recall"))],
    ]
    blocks.append(format_table(["quantity", "value"], rows, title="roll-up"))
    return "\n".join(blocks)


def _command_profile(args) -> int:
    from repro.observability import (
        JSONLSink,
        MemorySink,
        Telemetry,
        write_summary_atomic,
    )
    from repro.system.batch import run_dgd_batch
    from repro.utils.rng import derive_seed, spawn_rngs

    if args.runs <= 0:
        raise InvalidParameterError("--runs must be positive")
    instance, faulty, x_H = regression_setup(
        args.n, args.d, args.f, args.noise_std, args.seed
    )
    behavior = make_attack(args.attack) if faulty else None
    sinks = [MemorySink()]
    if args.telemetry:
        sinks.append(JSONLSink(args.telemetry))
    telemetry = Telemetry(sinks, byzantine_ids=faulty, reference_point=x_H)
    # One run keeps --seed itself, which gives run_dgd's trajectory.
    seeds = (
        [args.seed] if args.runs == 1
        else [derive_seed(rng) for rng in spawn_rngs(args.seed, args.runs)]
    )
    run_dgd_batch(
        instance.costs,
        behavior,
        seeds=seeds,
        gradient_filter=args.filter,
        faulty_ids=faulty,
        iterations=args.iterations,
        telemetry=telemetry,
    )
    summary = telemetry.summary()
    telemetry.close()
    print(_render_telemetry_summary(
        summary,
        title=(f"profile: run_dgd_batch x{args.runs}, filter={args.filter}, "
               f"attack={args.attack if faulty else '(none)'}, "
               f"n={args.n}, f={args.f}, d={args.d}, T={args.iterations}"),
    ))
    if args.telemetry:
        print(f"telemetry -> {args.telemetry} ({telemetry.emitted} records)")
    if args.json:
        write_summary_atomic(args.json, summary)
        print(f"saved summary to {args.json}")
    return 0


def _command_redundancy(args) -> int:
    rows = []
    for sigma in args.noise:
        instance = make_redundant_regression(
            n=args.n, d=args.d, f=args.f, noise_std=sigma, seed=args.seed
        )
        report = measure_redundancy_margin(instance.costs, args.f)
        rows.append([sigma, report.margin, "yes" if report.holds else "no"])
    print(format_table(
        ["noise std", "margin eps*", "2f-redundant"], rows,
        title=f"redundancy margin (n={args.n}, f={args.f}, d={args.d})",
    ))
    return 0


def _sweep_engine(args, **options):
    """The :class:`~repro.experiments.sweep.SweepEngine` the engine flags
    describe, with ``options`` passed on."""
    from repro.experiments.sweep import SweepEngine

    if args.resume and args.cache_dir is None:
        raise InvalidParameterError(
            "--resume requires --cache-dir (nothing to resume from)"
        )
    return SweepEngine(
        parallel=not args.sequential,
        max_workers=args.workers,
        cache_dir=args.cache_dir,
        events=args.events,
        **options,
    )


def _print_event_counts(args, engine) -> None:
    if args.events:
        counts = engine.events.counts()
        rendered = ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
        print(f"events -> {args.events}: {rendered}")


def _command_sweep(args) -> int:
    from repro.experiments.sweep import summarize_grid

    grid = grid_from_params(_flag_values(RegressionGrid, args))
    engine = _sweep_engine(
        args, timeout=args.timeout, retries=args.retries,
        telemetry_dir=args.telemetry,
    )
    cells = engine.resume(grid) if args.resume else engine.run_regression_grid(grid)
    print(summarize_grid(cells).render())
    cached = sum(cell.cached for cell in cells)
    failed = sum(cell.failed for cell in cells)
    quarantined = sum(cell.quarantined for cell in cells)
    line = f"{len(cells)} cells ({cached} from cache)"
    if failed:
        line += f", {failed} failed ({quarantined} quarantined)"
    print(line)
    _print_event_counts(args, engine)
    if args.telemetry:
        print(f"telemetry -> {args.telemetry}/")
    return 1 if failed else 0


def _select_benches(args) -> List[str]:
    """Resolve the names/--all/--tag selection flags against the registry.

    Raises :class:`~repro.exceptions.InvalidParameterError` for an empty
    or unknown selection (exit code 2, through :func:`main`).
    """
    from repro.observability.perf import (
        available_benches,
        get_bench,
        load_default_workloads,
    )

    load_default_workloads()
    tag = getattr(args, "tag", None)
    if args.names and (args.select_all or tag):
        raise InvalidParameterError(
            "give bench names OR --all/--tag, not both"
        )
    if args.names:
        for name in args.names:
            get_bench(name)  # raises with the known-name list
        return list(args.names)
    if args.select_all:
        return available_benches()
    if tag:
        names = available_benches(tag=tag)
        if not names:
            raise InvalidParameterError(f"no benches carry tag {tag!r}")
        return names
    raise InvalidParameterError(
        "no benches selected (give names, --all, or --tag)"
    )


def _build_policy(args):
    from repro.observability.perf import RegressionPolicy

    overrides = {}
    if args.rel_tol is not None:
        overrides["rel_tol"] = args.rel_tol
    if args.noise_floor is not None:
        overrides["noise_floor"] = args.noise_floor
    if args.metric_tol is not None:
        overrides["metric_rel_tol"] = args.metric_tol
    return RegressionPolicy(**overrides)


def _command_bench(args) -> int:
    from repro.observability.perf import (
        BaselineStore,
        available_benches,
        bench_output_path,
        compare_payloads,
        format_comparisons,
        get_bench,
        load_bench_payload,
        load_default_workloads,
        run_registered,
        worst_verdict,
    )

    if args.bench_command == "list":
        load_default_workloads()
        rows = []
        for name in available_benches(tag=args.tag):
            spec = get_bench(name)
            rows.append([
                name,
                ",".join(spec.tags) or "-",
                spec.description or "-",
            ])
        if not rows:
            raise InvalidParameterError(f"no benches carry tag {args.tag!r}")
        print(format_table(["bench", "tags", "description"], rows,
                           title="registered benchmarks"))
        return 0

    names = _select_benches(args)

    if args.bench_command == "run":
        if args.repeats < 1:
            raise InvalidParameterError("--repeats must be >= 1")
        for name in names:
            outcome = run_registered(
                name,
                repeats=args.repeats,
                memory=not args.no_memory,
                output_dir=args.output_dir,
                telemetry_dir=args.telemetry_dir,
            )
            timings = outcome.result.timings
            print(
                f"{name}: best {timings['best_seconds']:.4f}s over "
                f"{args.repeats} repeat(s), peak "
                f"{outcome.result.memory['peak_bytes'] / 1e6:.1f} MB "
                f"-> {outcome.path}"
            )
        return 0

    store = BaselineStore(args.baseline_dir)
    policy = _build_policy(args)

    if args.bench_command == "compare":
        comparisons = []
        for name in names:
            path = bench_output_path(args.current_dir, name)
            try:
                current = load_bench_payload(path)
            except (BenchSchemaError, ReproError, OSError) as exc:
                print(f"error: cannot load candidate {path}: {exc}",
                      file=sys.stderr)
                return 2
            comparisons.append(compare_payloads(current, store.load(name), policy))
        print(format_comparisons(comparisons))
        return 1 if worst_verdict(comparisons) == "regression" else 0

    # gate: run fresh, then compare.
    if args.repeats < 1:
        raise InvalidParameterError("--repeats must be >= 1")
    comparisons = []
    for name in names:
        outcome = run_registered(
            name, repeats=args.repeats, output_dir=args.output_dir
        )
        comparison = compare_payloads(
            outcome.result.to_payload(), store.load(name), policy
        )
        if comparison.verdict == "new" and args.strict_missing:
            comparison.verdict = "missing"
            comparison.notes.append(
                "strict mode: a gated bench must have a committed baseline"
            )
        comparisons.append(comparison)
    print(format_comparisons(comparisons))
    failed = worst_verdict(comparisons) in ("regression", "missing")
    print("gate:", "FAIL" if failed else "ok",
          f"({len(comparisons)} bench(es) against {store.directory})")
    return 1 if failed else 0


def _format_leaderboard(payload) -> str:
    """Render an artifact's leaderboard as an aligned table."""
    rows = []
    for row in payload["leaderboard"]["all"]:
        rows.append([
            row["rank"],
            row["player"],
            row["role"],
            f"{row['rating_mean']:.1f} ± {row['ci95']:.1f}",
            row["wins"],
            row["losses"],
            row["draws"],
            row["errors"],
        ])
    counts = payload["counts"]
    return format_table(
        ["rank", "player", "role", "elo (mean ± ci95)", "w", "l", "d", "err"],
        rows,
        title=(
            f"robustness leaderboard: {payload['name']} "
            f"({counts['filters']} filters x {counts['attacks']} attacks, "
            f"{counts['seeds']} seeds, {counts['rounds']} round(s), "
            f"{counts['matches']} matches)"
        ),
    )


def _load_artifact_or_none(path: str):
    """Load + validate a tournament artifact; print the error on failure."""
    from repro.experiments.tournament import load_tournament_artifact

    try:
        return load_tournament_artifact(path)
    except (ReproError, OSError) as exc:
        print(f"error: cannot load tournament artifact {path}: {exc}",
              file=sys.stderr)
        return None


def _command_tournament(args) -> int:
    from repro.experiments.tournament import (
        default_attack_bank,
        run_tournament,
        write_tournament_artifact,
    )

    if args.tournament_command in ("leaderboard", "report"):
        payload = _load_artifact_or_none(args.path)
        if payload is None:
            return 2
        print(_format_leaderboard(payload))
        failed = payload["counts"].get("failed", 0)
        if args.tournament_command == "report":
            for round_doc in payload["rounds"]:
                for retune in round_doc.get("retuned", []):
                    print(
                        f"round {round_doc['round']}: {retune['attack']} "
                        f"re-tuned against {retune['filter']} -> "
                        f"level {retune['level']} {retune['params']}"
                    )
            scored = [
                m
                for round_doc in payload["rounds"]
                for m in round_doc["matches"]
                if "final_error" in m
            ]
            decisive = sorted(
                scored, key=lambda m: m["final_error"], reverse=True
            )[:5]
            rows = [
                [m["filter"], m["attack"], m["round"], m["seed"],
                 f"{m['final_error']:.4f}", m["outcome"]]
                for m in decisive
            ]
            if rows:
                print(format_table(
                    ["filter", "attack", "round", "seed", "final error",
                     "outcome"],
                    rows, title="most decisive matches",
                ))
        if failed:
            print(f"{failed} failed match(es) recorded in the artifact",
                  file=sys.stderr)
            return 1
        return 0

    # run
    bank = default_attack_bank()
    if args.attacks is not None:
        by_name = {spec.name: spec for spec in bank}
        unknown = [name for name in args.attacks if name not in by_name]
        if unknown:
            raise InvalidParameterError(
                f"unknown bank attack(s) {', '.join(unknown)}; "
                f"available: {', '.join(sorted(by_name))}"
            )
        bank = tuple(by_name[name] for name in args.attacks)
    config = TournamentConfig(**_flag_values(
        TournamentConfig, args, filters=tuple(args.filters or ()), attacks=bank,
    ))
    engine = _sweep_engine(args)
    if args.resume:
        engine.events.emit("resume", kind="tournament", name=args.name)
    payload = run_tournament(config, engine)
    path = write_tournament_artifact(payload, args.out_dir)
    print(_format_leaderboard(payload))
    execution = payload["execution"]
    print(
        f"{payload['counts']['matches']} matches "
        f"({execution['cache_hits']} from cache) -> {path}"
    )
    _print_event_counts(args, engine)
    failed = payload["counts"]["failed"]
    if failed:
        print(f"{failed} match(es) failed", file=sys.stderr)
    return 1 if failed else 0


def _command_trace(args) -> int:
    if args.trace_command == "export":
        return _command_trace_export(args)
    if args.trace_command == "flame":
        return _command_trace_flame(args)
    return _command_trace_report(args)


def _command_trace_export(args) -> int:
    from repro.observability.perf import (
        collect_trace_records,
        write_chrome_trace,
    )

    records = collect_trace_records(args.path)
    document = write_chrome_trace(args.output, records)
    events = [e for e in document["traceEvents"] if e.get("ph") == "X"]
    if not events:
        print("no traced spans found (was tracing enabled?)",
              file=sys.stderr)
        return 1
    print(f"wrote {len(events)} span(s) to {args.output} "
          f"(load in chrome://tracing or ui.perfetto.dev)")
    return 0


def _command_trace_flame(args) -> int:
    from repro.observability.perf import (
        build_span_tree,
        collect_trace_records,
        render_flame,
    )

    print(render_flame(build_span_tree(collect_trace_records(args.path))))
    return 0


def _command_trace_report(args) -> int:
    from repro.observability import write_summary_atomic
    from repro.observability.perf import analyze_trace_path

    if args.windows < 1:
        raise InvalidParameterError("--windows must be >= 1")
    reports = analyze_trace_path(args.path, windows=args.windows)
    for report in reports:
        print(report.render())
        print()
    anomalies = sum(len(report.anomalies) for report in reports)
    print(f"{len(reports)} stream(s), {anomalies} anomaly flag(s)")
    if args.json:
        write_summary_atomic(
            args.json, {"reports": [r.to_payload() for r in reports]}
        )
        print(f"saved report to {args.json}")
    if args.fail_on_anomaly and anomalies:
        return 1
    return 0


def _command_list(_args) -> int:
    print("gradient filters:", ", ".join(available_filters()))
    print("attacks:         ", ", ".join(available_attacks()))
    print("experiments:     ", ", ".join(sorted(EXPERIMENTS)))
    return 0


def _command_serve(args) -> int:
    """Run the long-lived aggregation service until interrupted."""
    import asyncio

    from repro.service import ReproService

    config = ServiceConfig(
        **_flag_values(ServiceConfig, args, parallel=not args.sequential)
    )
    service = ReproService(config)
    target = config.socket_path or f"{config.host}:{config.port}"
    print(f"repro serve: state in {config.state_dir}, listening on {target}",
          flush=True)
    try:
        asyncio.run(service.serve_forever())
    except KeyboardInterrupt:
        pass
    return 0


def _command_submit(args) -> int:
    """Submit one job; exit 0 accepted / 1 rejected or failed / 2 usage."""
    from repro.service import ServiceClient

    client = ServiceClient(socket_path=args.socket, host=args.host, port=args.port)
    if args.submit_command == "sweep":
        kind = "sweep"
        params = _flag_values(RegressionGrid, args, telemetry=args.telemetry)
        grid_from_params(params)  # refuse a bad grid before connecting
    elif args.submit_command == "run":
        kind, params = "run", {key: getattr(args, key) for key in RUN_DEFAULTS}
    else:
        kind, params = "bench", {"name": args.name, "repeats": args.repeats}
    try:
        record = client.submit(kind, params, client=args.client,
                               priority=args.priority)
    except AdmissionRejectedError as exc:
        print(f"rejected ({exc.reason}): {exc.detail} "
              f"[limit {exc.limit}, queue depth {exc.queue_depth}]",
              file=sys.stderr)
        return 1
    print(f"accepted {record['job_id']} ({kind}, "
          f"priority {record['spec']['priority']}, "
          f"trace {record['trace_id']})")
    if not args.wait:
        return 0
    final = client.wait(record["job_id"], timeout=args.wait_timeout)
    print(f"{final['job_id']}: {final['state']}"
          + (f" — {final['error']}" if final.get("error") else ""))
    if final["state"] != "done":
        return 1
    if final.get("summary"):
        print("summary:", json.dumps(final["summary"], sort_keys=True))
    return 0


def _command_status(args) -> int:
    """Inspect the server's job table; exit codes follow ``submit``."""
    from repro.service import ServiceClient

    client = ServiceClient(socket_path=args.socket, host=args.host, port=args.port)
    if args.job_id is None:
        health = client.healthz()
        stats = client.stats()
        cache = stats.get("cache", {})
        pool = stats.get("pool", {})
        ratio = cache.get("hit_ratio")
        print(
            f"up {health.get('uptime', 0.0):.0f}s | "
            f"queue depth {stats.get('queue', {}).get('depth', 0)} | "
            f"pool workers {pool.get('live_workers', 0)} live, "
            f"{pool.get('rebuilds', 0)} rebuild(s) | "
            f"cache {cache.get('cells', 0)} cell(s), "
            + ("hit ratio n/a" if ratio is None
               else f"hit ratio {ratio:.0%}")
        )
        rows = [
            [record["job_id"], record["spec"]["kind"],
             record["spec"]["client"], str(record["spec"]["priority"]),
             record["state"], str(record["attempts"]),
             record.get("error") or ""]
            for record in client.jobs()
        ]
        print(format_table(
            ["job", "kind", "client", "prio", "state", "attempts",
             "error"], rows))
        return 0
    if args.events:
        try:
            for event in client.events(args.job_id, follow=args.follow):
                print(json.dumps(event, sort_keys=True), flush=True)
        except BrokenPipeError:
            # downstream consumer (e.g. ``| head``) closed the pipe;
            # swallow the write error and suppress the one the
            # interpreter would raise flushing stdout at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    if args.result:
        print(json.dumps(client.result(args.job_id), indent=2,
                         sort_keys=True))
        return 0
    record = client.job(args.job_id)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0 if record["state"] != "failed" else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "experiment": _command_experiment,
        "run": _command_run,
        "profile": _command_profile,
        "redundancy": _command_redundancy,
        "sweep": _command_sweep,
        "bench": _command_bench,
        "tournament": _command_tournament,
        "trace": _command_trace,
        "serve": _command_serve,
        "submit": _command_submit,
        "status": _command_status,
        "list": _command_list,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
