"""Command-line interface: regenerate any paper panel from a terminal.

Usage::

    repro list                       # show every experiment id
    repro run fig6a --reps 20        # regenerate one panel, print the rows
    repro run fig6a --json out.json  # ... and persist it
    repro run fig6a --resume ckpt/   # checkpoint + resume an interrupted run
    repro run fig6a --workers 4      # parallel repetitions, identical output
    repro tables                     # print Tables I-III
    repro simulate --users 100       # one run, full metrics summary
    repro simulate --selector-timeout 0.5   # ... with the DP watchdog armed
    repro simulate --trace out.json  # ... tracing phases (open in Perfetto)
    repro trace summarize out.json   # per-phase timings from a trace file
    repro simulate --profile         # ... sampling RSS/CPU/GC while it runs
    repro simulate --obs-store .repro-obs   # ... and record it in the store
    repro obs ingest BENCH_selectors.json   # fold a bench trajectory in
    repro obs regress                # gate the latest runs on their history
    repro obs dashboard --html obs.html     # sparklines + one-file HTML
    repro serve --root .repro-server        # the always-on job service
    repro jobs submit --scenario city-2k    # submit a job to it
    repro jobs tail job-000001       # stream its rounds as NDJSON

Every subcommand shares the logging flags ``-v/--verbose`` (repeatable),
``--quiet``, and ``--log-json``; the default is warnings-only to stderr,
so stdout output is unchanged.  ``python -m repro.cli`` works
identically when the console script is not on PATH.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments.registry import experiment_ids, run_experiment
from repro.experiments.tables import all_tables
from repro.io.csvio import write_series_csv
from repro.io.results import save_result
from repro.io.tables import render_experiment, render_table
from repro.metrics import MetricsSummary
from repro.obs.log import configure_logging
from repro.simulation import SimulationConfig, simulate


def _logging_flags() -> argparse.ArgumentParser:
    """The shared logging flags, as a parent parser every subcommand uses."""
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("logging")
    group.add_argument("-v", "--verbose", action="count", default=0,
                       help="log INFO (-v) or DEBUG (-vv) to stderr "
                            "(default: warnings only)")
    group.add_argument("--quiet", action="store_true",
                       help="log errors only")
    group.add_argument("--log-json", action="store_true",
                       help="emit log lines as JSON objects (for shippers/jq)")
    return common


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Pay On-demand' (ICDCS 2018) tables and figures.",
    )
    common = _logging_flags()
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", parents=[common],
                   help="list every registered experiment id")

    run = sub.add_parser("run", parents=[common],
                         help="run one experiment and print its rows")
    run.add_argument("experiment", help="experiment id (see 'repro list')")
    run.add_argument("--reps", type=int, default=None,
                     help="repetitions per configuration (default: REPRO_REPS or 20)")
    run.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    run.add_argument("--json", metavar="PATH", default=None,
                     help="also save the result as JSON")
    run.add_argument("--csv", metavar="PATH", default=None,
                     help="also export the series as CSV")
    run.add_argument("--precision", type=int, default=2,
                     help="decimal places in the printed table")
    run.add_argument("--chart", action="store_true",
                     help="also render the series as an ASCII chart")
    run.add_argument("--resume", metavar="DIR", default=None,
                     help="checkpoint repetitions to journals in DIR and "
                          "resume an interrupted run from them (supported "
                          "by journaling experiments, e.g. fig6a, "
                          "sweep-budget)")
    run.add_argument("--workers", type=int, default=None, metavar="N",
                     help="fan repetitions across N simulation processes "
                          "(default: serial); aggregates are bit-identical "
                          "to a serial run and combine with --resume")
    run.add_argument("--obs-store", metavar="DIR", default=None,
                     help="also record the result's series in a run store "
                          "(kind 'experiment:<id>') for trend/regression "
                          "tracking via 'repro obs'")

    sub.add_parser("tables", parents=[common],
                   help="print Tables I-III from the paper")

    report = sub.add_parser(
        "report", parents=[common],
        help="regenerate all paper panels into one markdown report",
    )
    report.add_argument("--reps", type=int, default=None,
                        help="repetitions per configuration")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--out", metavar="PATH", default=None,
                        help="write the report here instead of stdout")

    sim = sub.add_parser("simulate", parents=[common],
                         help="run one simulation, print the metrics")
    sim.add_argument("--scenario", metavar="NAME_OR_PATH", default=None,
                     help="start from a scenario: a preset name (see "
                          "'repro scenarios') or a .toml/.json spec file; "
                          "explicit flags below override the scenario")
    sim.add_argument("--users", type=int, default=None,
                     help="number of users (default 100)")
    sim.add_argument("--tasks", type=int, default=None,
                     help="number of tasks (default 20)")
    sim.add_argument("--rounds", type=int, default=None,
                     help="round horizon (default 15)")
    sim.add_argument("--mechanism", default=None,
                     help="incentive mechanism (default on-demand)")
    sim.add_argument("--selector", default=None,
                     help="task selector (default dp)")
    sim.add_argument("--mobility", default=None,
                     help="mobility policy (default follow-path)")
    sim.add_argument("--layout", default=None, choices=("uniform", "clustered"))
    sim.add_argument("--seed", type=int, default=None, help="seed (default 0)")
    sim.add_argument("--stream", action="store_true",
                     help="aggregate rounds on the fly instead of keeping "
                          "them in memory (bounded-memory large runs; "
                          "pair with --events to retain the full history)")
    sim.add_argument("--events", metavar="PATH", default=None,
                     help="stream every round record to an events JSONL "
                          "as it finishes (works with or without --stream)")
    sim.add_argument("--selector-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="wall-clock deadline per task-selection call; on "
                          "breach the run degrades to the greedy solver and "
                          "reports the degradation count")
    sim.add_argument("--map", action="store_true",
                     help="render the final world state as an ASCII map")
    sim.add_argument("--trace", metavar="PATH", default=None,
                     help="record run/round/phase spans to PATH as a Chrome "
                          "trace-event file (open at https://ui.perfetto.dev) "
                          "and write a provenance manifest next to it; the "
                          "simulated numbers are bit-identical either way")
    sim.add_argument("--profile", action="store_true",
                     help="sample process RSS/CPU/GC on a background thread "
                          "while the run executes and print the digest; "
                          "simulated numbers are bit-identical either way")
    sim.add_argument("--profile-interval", type=float, default=0.02,
                     metavar="SECONDS",
                     help="seconds between profiler samples (default 0.02)")
    sim.add_argument("--obs-store", metavar="DIR", default=None,
                     help="record metrics (+ manifest, trace summary, and "
                          "profile when enabled) in a run store for "
                          "trend/regression tracking via 'repro obs'")

    scenarios = sub.add_parser(
        "scenarios", parents=[common],
        help="list the built-in scenario presets",
    )
    scenarios.add_argument("--verbose-config", action="store_true",
                           help="also print each preset's full config "
                                "overrides as TOML")

    trace = sub.add_parser("trace", help="inspect trace files written by --trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_sum = trace_sub.add_parser(
        "summarize", parents=[common],
        help="aggregate a trace file into per-phase timings",
    )
    trace_sum.add_argument("path", help="a trace file (Chrome JSON or JSONL)")
    trace_sum.add_argument("--precision", type=int, default=3,
                           help="decimal places in the printed table")
    trace_merge = trace_sub.add_parser(
        "merge", parents=[common],
        help="stitch per-process trace shards into one Chrome trace",
    )
    trace_merge.add_argument(
        "paths", nargs="+",
        help="trace shard files (*.trace.jsonl), or directories to scan "
             "for them — e.g. a job's trace/ directory",
    )
    trace_merge.add_argument(
        "--out", required=True, metavar="FILE",
        help="output Chrome trace JSON (load in Perfetto / chrome://tracing)",
    )

    show = sub.add_parser("show", parents=[common],
                          help="render a saved experiment JSON")
    show.add_argument("path", help="result file written by 'repro run --json'")
    show.add_argument("--chart", action="store_true",
                      help="render as an ASCII chart instead of a table")
    show.add_argument("--precision", type=int, default=2)

    sweep = sub.add_parser(
        "sweep", parents=[common],
        help="sweep any SimulationConfig field against the core metrics",
    )
    sweep.add_argument("field", help="a SimulationConfig field, e.g. n_users")
    sweep.add_argument("values", nargs="+", type=float, help="values to sweep")
    sweep.add_argument("--scenario", metavar="NAME_OR_PATH", default=None,
                       help="sweep on top of a scenario (preset name or "
                            ".toml/.json spec) instead of the defaults")
    sweep.add_argument("--reps", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--chart", action="store_true")
    sweep.add_argument("--resume", metavar="DIR", default=None,
                       help="checkpoint repetitions to journals in DIR and "
                            "resume an interrupted sweep from them")
    sweep.add_argument("--workers", type=int, default=None, metavar="N",
                       help="simulation processes per sweep value "
                            "(default: serial)")

    obs = sub.add_parser(
        "obs",
        help="the run observatory: cross-run store, regression gating, "
             "dashboards",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    store_flag = argparse.ArgumentParser(add_help=False)
    store_flag.add_argument(
        "--store", metavar="DIR",
        default=os.environ.get("REPRO_OBS_STORE", ".repro-obs"),
        help="run store directory (default: $REPRO_OBS_STORE or .repro-obs)",
    )

    obs_ingest = obs_sub.add_parser(
        "ingest", parents=[common, store_flag],
        help="fold bench trajectory files (BENCH_selectors.json) into the store",
    )
    obs_ingest.add_argument("paths", nargs="+",
                            help="bench trajectory JSON files (idempotent: "
                                 "already-ingested entries are skipped)")
    obs_ingest.add_argument("--kind", default="bench",
                            help="run kind to file the entries under "
                                 "(default: bench)")

    obs_list = obs_sub.add_parser(
        "list", parents=[common, store_flag],
        help="list ingested runs",
    )
    obs_list.add_argument("--kind", default=None,
                          help="restrict to one run kind")

    obs_show = obs_sub.add_parser(
        "show", parents=[common, store_flag],
        help="show one run's full record",
    )
    obs_show.add_argument("run_id", help="a run id from 'repro obs list'")

    obs_diff = obs_sub.add_parser(
        "diff", parents=[common, store_flag],
        help="compare two runs value by value",
    )
    obs_diff.add_argument("run_a", help="baseline run id")
    obs_diff.add_argument("run_b", help="candidate run id")

    obs_regress = obs_sub.add_parser(
        "regress", parents=[common, store_flag],
        help="check the latest run of each kind against its baseline window",
    )
    obs_regress.add_argument("--kind", default=None,
                             help="restrict to one run kind")
    obs_regress.add_argument("--window", type=int, default=5,
                             help="baseline window size (default 5)")
    obs_regress.add_argument("--warn-only", action="store_true",
                             help="exit 0 even when metrics regressed "
                                  "(report, don't gate)")
    obs_regress.add_argument("--json", metavar="PATH", default=None,
                             help="also write the full report as JSON")

    obs_dash = obs_sub.add_parser(
        "dashboard", parents=[common, store_flag],
        help="render the store as sparklines (and optionally one-file HTML)",
    )
    obs_dash.add_argument("--window", type=int, default=5,
                          help="regression baseline window (default 5)")
    obs_dash.add_argument("--html", metavar="PATH", default=None,
                          help="also write a self-contained HTML dashboard")

    serve = sub.add_parser(
        "serve", parents=[common],
        help="run the job service: submissions in, supervised "
             "simulations out",
    )
    serve.add_argument(
        "--root", metavar="DIR",
        default=os.environ.get("REPRO_SERVER_ROOT", ".repro-server"),
        help="service state directory (journal, job dirs, obs store; "
             "default: $REPRO_SERVER_ROOT or .repro-server)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default 0 = ephemeral; the chosen "
                            "port lands in <root>/server.json)")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="max queued jobs before submissions get 429 "
                            "(default 16)")
    serve.add_argument("--concurrency", type=int, default=2,
                       help="max simultaneously running workers (default 2)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="worker crashes before a job is poisoned "
                            "(default 3)")
    serve.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="default per-job wall-clock budget "
                            "(default: unlimited)")
    serve.add_argument("--memory-limit-mb", type=int, default=None, metavar="MB",
                       help="shed lowest-priority queued jobs when the "
                            "server RSS exceeds this (default: no shedding)")

    env = sub.add_parser(
        "env",
        help="the Gymnasium-style incentive-policy environment",
    )
    env_sub = env.add_subparsers(dest="env_command", required=True)
    env_rollout = env_sub.add_parser(
        "rollout", parents=[common],
        help="roll a policy through IncentiveEnv episodes and print "
             "per-episode returns (the CI env smoke; needs no gymnasium)",
    )
    env_rollout.add_argument("--scenario", metavar="NAME_OR_PATH",
                             default=None,
                             help="scenario preset or spec file "
                                  "(default: the paper config)")
    env_rollout.add_argument("--policy", choices=["none", "random"],
                             default="random",
                             help="'random': uniform samples from the "
                                  "action space; 'none': step with the "
                                  "paper's static knobs (default: random)")
    env_rollout.add_argument("--seeds", type=int, default=3, metavar="N",
                             help="episodes, seeded 0..N-1 (default 3)")
    env_rollout.add_argument("--users", type=int, default=None,
                             help="override n_users")
    env_rollout.add_argument("--tasks", type=int, default=None,
                             help="override n_tasks")
    env_rollout.add_argument("--rounds", type=int, default=None,
                             help="override the round horizon")
    env_rollout.add_argument("--obs", default="demand-levels",
                             help="observation builder name "
                                  "(default: demand-levels)")
    env_rollout.add_argument("--actions", default="incentive",
                             help="action adapter name (default: incentive)")
    env_rollout.add_argument("--reward", default="completeness-delta",
                             help="reward function name "
                                  "(default: completeness-delta)")
    env_rollout.add_argument("--json", action="store_true",
                             help="print one JSON object per episode "
                                  "instead of the table")

    jobs = sub.add_parser(
        "jobs",
        help="talk to a running job service (submit, status, cancel, tail)",
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)
    server_flag = argparse.ArgumentParser(add_help=False)
    server_flag.add_argument(
        "--root", metavar="DIR",
        default=os.environ.get("REPRO_SERVER_ROOT", ".repro-server"),
        help="the service's state directory (its server.json names the "
             "address; default: $REPRO_SERVER_ROOT or .repro-server)",
    )

    jobs_submit = jobs_sub.add_parser(
        "submit", parents=[common, server_flag],
        help="submit a simulation job",
    )
    jobs_submit.add_argument("--scenario", default=None,
                             help="a scenario preset name (see "
                                  "'repro scenarios')")
    jobs_submit.add_argument("--override", action="append", default=[],
                             metavar="FIELD=VALUE",
                             help="SimulationConfig override (repeatable), "
                                  "e.g. --override seed=7")
    jobs_submit.add_argument("--priority", type=int, default=0,
                             help="admission priority: higher runs first, "
                                  "lowest is shed first (default 0)")
    jobs_submit.add_argument("--timeout", type=float, default=None,
                             metavar="SECONDS",
                             help="per-job wall-clock budget")
    jobs_submit.add_argument("--wait", action="store_true",
                             help="block until the job is terminal and exit "
                                  "non-zero unless it is DONE")

    jobs_list = jobs_sub.add_parser(
        "list", parents=[common, server_flag],
        help="list the service's jobs",
    )
    jobs_list.add_argument("--state", default=None,
                           help="restrict to one lifecycle state "
                                "(queued, running, done, failed, cancelled, "
                                "timed_out)")

    jobs_status = jobs_sub.add_parser(
        "status", parents=[common, server_flag],
        help="show one job's full status document",
    )
    jobs_status.add_argument("job_id", help="a job id from 'repro jobs list'")

    jobs_cancel = jobs_sub.add_parser(
        "cancel", parents=[common, server_flag],
        help="cancel a queued or running job",
    )
    jobs_cancel.add_argument("job_id")

    jobs_tail = jobs_sub.add_parser(
        "tail", parents=[common, server_flag],
        help="stream a job's round events as NDJSON to stdout",
    )
    jobs_tail.add_argument("job_id")
    jobs_tail.add_argument("--no-follow", action="store_true",
                           help="dump what exists and exit instead of "
                                "following to the terminal state")

    jobs_top = jobs_sub.add_parser(
        "top", parents=[common, server_flag],
        help="live dashboard: queue + running jobs with round progress, "
             "spend, ETA, and a completeness sparkline per job",
    )
    jobs_top.add_argument("--interval", type=float, default=1.0,
                          metavar="SECONDS",
                          help="seconds between refreshes (default 1.0)")
    jobs_top.add_argument("--iterations", type=int, default=None, metavar="N",
                          help="stop after N frames (default: run until ^C)")
    jobs_top.add_argument("--no-clear", action="store_true",
                          help="print frames one after another instead of "
                               "redrawing in place (for logs/pipes)")
    return parser


def _command_list() -> int:
    for experiment_id in experiment_ids():
        print(experiment_id)
    return 0


def _command_run(args: argparse.Namespace) -> int:
    kwargs = {"base_seed": args.seed}
    if args.reps is not None:
        kwargs["repetitions"] = args.reps
    if args.resume is not None:
        from repro.experiments.registry import resumable_experiment_ids, supports_kwarg

        if not supports_kwarg(args.experiment, "journal_dir"):
            print(
                f"error: experiment {args.experiment!r} does not support "
                f"--resume; resumable experiments: "
                f"{', '.join(resumable_experiment_ids())}",
                file=sys.stderr,
            )
            return 2
        kwargs["journal_dir"] = args.resume
    if args.workers is not None:
        from repro.experiments.registry import supports_kwarg

        if not supports_kwarg(args.experiment, "workers"):
            print(
                f"error: experiment {args.experiment!r} does not support "
                f"--workers (it does not repeat seeded simulations)",
                file=sys.stderr,
            )
            return 2
        kwargs["workers"] = args.workers
    result = run_experiment(args.experiment, **kwargs)
    print(render_experiment(result, precision=args.precision))
    if args.chart:
        from repro.io.ascii_chart import render_chart

        print()
        print(render_chart(result))
    if args.json:
        path = save_result(result, args.json)
        print(f"\nsaved JSON: {path}")
    if args.csv:
        path = write_series_csv(result, args.csv)
        print(f"saved CSV: {path}")
    if args.obs_store:
        from repro.obs.store import RunStore

        values = {
            f"{series.label}[x={point.x:g}]": float(point.mean)
            for series in result.series
            for point in series.points
        }
        record, _ = RunStore(args.obs_store).ingest(
            f"experiment:{args.experiment}",
            values,
            labels={"experiment": args.experiment, "seed": str(args.seed)},
        )
        print(f"recorded in store: {record.run_id} ({args.obs_store})")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.report import build_report

    text = build_report(repetitions=args.reps, base_seed=args.seed)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote report: {args.out}")
    else:
        print(text)
    return 0


def _command_tables() -> int:
    for table in all_tables():
        print(f"{table.table_id}: {table.title}")
        print(render_table(table.header, table.rows, precision=3))
        print()
    return 0


def _simulate_config(args: argparse.Namespace) -> SimulationConfig:
    """Resolve --scenario plus explicit flags into one config.

    Explicitly-passed flags always win; with a scenario the remaining
    knobs come from the spec, without one they keep the historical CLI
    defaults.
    """
    overrides = {
        name: value
        for name, value in (
            ("n_users", args.users),
            ("n_tasks", args.tasks),
            ("rounds", args.rounds),
            ("mechanism", args.mechanism),
            ("selector", args.selector),
            ("mobility", args.mobility),
            ("layout", args.layout),
            ("seed", args.seed),
            ("selector_timeout", args.selector_timeout),
        )
        if value is not None
    }
    if args.stream:
        overrides["stream_rounds"] = True
    if args.scenario is not None:
        from repro.scenarios import load_scenario

        return load_scenario(args.scenario).to_config(**overrides)
    return SimulationConfig().with_overrides(**overrides)


def _command_simulate(args: argparse.Namespace, command: Optional[str] = None) -> int:
    config = _simulate_config(args)
    tracer = None
    if args.trace:
        from repro.obs.trace import SpanTracer

        tracer = SpanTracer(metadata={
            "mechanism": config.mechanism,
            "selector": config.selector,
            "seed": config.seed,
            "n_users": config.n_users,
            "n_tasks": config.n_tasks,
            "rounds": config.rounds,
        })
    profiler = None
    if args.profile:
        from repro.obs.profiler import ResourceProfiler

        profiler = ResourceProfiler(
            interval=args.profile_interval, tracer=tracer
        ).start()
    stream_writer = None
    try:
        from repro.simulation import make_engine

        engine_kwargs = {}
        if tracer is not None:
            engine_kwargs["tracer"] = tracer
        engine = make_engine(config, **engine_kwargs)
        if args.events:
            from repro.io.events import RoundStreamWriter

            stream_writer = RoundStreamWriter(args.events, engine.world)
            engine.observers.append(stream_writer)
        result = engine.run()
    finally:
        if stream_writer is not None:
            stream_writer.close()
        if profiler is not None:
            profiler.stop()
    summary = MetricsSummary.from_result(result)
    rows = [[name, value] for name, value in summary.as_dict().items()]
    print(render_table(["metric", "value"], rows, precision=4))
    if stream_writer is not None:
        print(
            f"\nstreamed events: {stream_writer.path} "
            f"({stream_writer.rounds_written} rounds)"
        )
    perf = result.perf_totals()
    if perf.selector_calls:
        per_call_ms = 1e3 * perf.selector_wall_time / perf.selector_calls
        print(
            f"\nperf: {perf.selector_calls} selections in "
            f"{perf.selector_wall_time:.3f}s ({per_call_ms:.2f} ms/call), "
            f"{perf.dp_states_expanded} DP states expanded, "
            f"problem cache {perf.problem_cache_hits} hits / "
            f"{perf.problem_cache_misses} misses "
            f"({100.0 * perf.cache_hit_rate:.1f}% hit rate)"
        )
    if args.selector_timeout is not None:
        print(
            f"\nselector degradations (greedy fallbacks): "
            f"{result.total_selector_fallbacks}"
        )
    if args.map:
        from repro.io.worldmap import render_world

        print()
        print(render_world(result.world))
    if profiler is not None:
        digest = profiler.summary()
        print(
            f"\nprofile: {digest['samples']} samples over "
            f"{digest.get('duration_seconds', 0.0):.3f}s, peak RSS "
            f"{digest.get('rss_peak_bytes', 0) / 2**20:.1f} MiB, CPU "
            f"{digest.get('cpu_seconds', 0.0):.3f}s, "
            f"{digest.get('gc_collections', 0)} GC collections"
        )
    trace_path = None
    if tracer is not None:
        from repro.obs.manifest import build_manifest, write_manifest

        trace_path = tracer.write_chrome(
            args.trace, counters=result.metrics_totals().as_dict()
        )
        manifest_path = write_manifest(
            build_manifest(config, base_seed=config.seed, command=command),
            trace_path,
        )
        print(f"\nsaved trace: {trace_path} ({len(tracer.spans)} spans)")
        print(f"saved manifest: {manifest_path}")
    if args.obs_store:
        import dataclasses

        from repro.obs.manifest import build_manifest
        from repro.obs.store import RunStore, registry_values

        registry = result.metrics_totals()
        if profiler is not None:
            profiler.fold_into(registry)
        values = registry_values(registry.as_dict())
        for name, value in summary.as_dict().items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                values[f"summary/{name}"] = float(value)
        trace_rows = None
        if trace_path is not None:
            from repro.obs.trace import summarize

            trace_rows = [
                dataclasses.asdict(phase) for phase in summarize(trace_path)
            ]
        labels = {
            "mechanism": config.mechanism,
            "selector": config.selector,
            "mobility": config.mobility,
            "layout": config.layout,
            "seed": str(config.seed),
        }
        if args.scenario is not None:
            labels["scenario"] = str(args.scenario)
        record, _ = RunStore(args.obs_store).ingest(
            "simulate",
            values,
            labels=labels,
            manifest=build_manifest(
                config, base_seed=config.seed, command=command
            ).as_dict(),
            metrics=registry.as_dict(),
            trace_summary=trace_rows,
        )
        print(f"\nrecorded in store: {record.run_id} ({args.obs_store})")
    return 0


def _command_trace_merge(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.obs.trace import merge_traces

    shards = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            shards.extend(sorted(path.glob("*.trace.jsonl")))
        else:
            shards.append(path)
    if not shards:
        print("error: no trace shards found", file=sys.stderr)
        return 2
    try:
        payload = merge_traces(shards)
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(_json.dumps(payload, indent=1))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    other = payload["otherData"]
    print(
        f"merged {len(shards)} shard(s), "
        f"{len(payload['traceEvents'])} event(s), "
        f"trace id {other['trace_id']} -> {args.out}"
    )
    for process in other["processes"]:
        parent = other["parents"].get(process) or "-"
        print(f"  {process} (parent span: {parent})")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "merge":
        return _command_trace_merge(args)
    from repro.obs.metrics import Histogram
    from repro.obs.trace import load_trace, summarize

    rows = [
        [
            phase.name,
            phase.count,
            phase.total_seconds,
            1e3 * phase.mean_seconds,
            1e3 * phase.p50_seconds,
            1e3 * phase.p95_seconds,
            1e3 * phase.max_seconds,
        ]
        for phase in summarize(args.path)
    ]
    print(render_table(
        ["phase", "count", "total s", "mean ms", "p50 ms", "p95 ms", "max ms"],
        rows, precision=args.precision,
    ))
    counters = load_trace(args.path)["counters"]
    if counters:
        counter_rows = []
        for series in sorted(counters):
            state = counters[series]
            kind = state.get("kind")
            if kind == "histogram":
                histogram = Histogram.from_dict(
                    {k: v for k, v in state.items() if k != "kind"}
                )
                value = f"count={histogram.count} sum={histogram.sum:.4g}"
                if histogram.count:
                    value += (
                        f" p50={histogram.percentile(50.0):.4g}"
                        f" p95={histogram.percentile(95.0):.4g}"
                    )
                else:
                    # percentile() is None on an empty histogram;
                    # render a placeholder instead of "None"/crashing.
                    value += " p50=- p95=-"
            else:
                value = state.get("value")
            counter_rows.append([series, kind, value])
        print()
        print(render_table(["series", "kind", "value"], counter_rows))
    return 0


def _command_show(args: argparse.Namespace) -> int:
    from repro.io.results import load_result

    result = load_result(args.path)
    if args.chart:
        from repro.io.ascii_chart import render_chart

        print(render_chart(result))
    else:
        print(render_experiment(result, precision=args.precision))
    return 0


def _command_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import PRESETS, dumps_toml

    rows = []
    for spec in PRESETS.values():
        config = spec.to_config()
        rows.append([
            spec.name, config.n_users, config.n_tasks, config.rounds,
            config.arrival,
            "open" if config.dynamics else "closed",
            spec.description,
        ])
    print(render_table(
        ["scenario", "users", "tasks", "rounds", "arrival",
         "world", "description"],
        rows,
    ))
    if args.verbose_config:
        for spec in PRESETS.values():
            print()
            print(dumps_toml(spec.to_mapping()).rstrip())
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweeps import config_sweep

    # Integer-typed fields arrive as floats from argparse; coerce when exact.
    values = [int(v) if float(v).is_integer() else v for v in args.values]
    kwargs = {"base_seed": args.seed}
    if args.scenario is not None:
        from repro.scenarios import load_scenario

        kwargs["base_config"] = load_scenario(args.scenario).to_config()
    if args.reps is not None:
        kwargs["repetitions"] = args.reps
    if args.resume is not None:
        kwargs["journal_dir"] = args.resume
    if args.workers is not None:
        kwargs["workers"] = args.workers
    result = config_sweep(args.field, values, **kwargs)
    print(render_experiment(result))
    if args.chart:
        from repro.io.ascii_chart import render_chart

        print()
        print(render_chart(result))
    return 0


def _command_obs(args: argparse.Namespace) -> int:
    from repro.obs.store import DEDUPE_LABEL, RunStore

    store = RunStore(args.store)

    if args.obs_command == "ingest":
        from repro.obs.store import ingest_bench_trajectory

        for path in args.paths:
            created = ingest_bench_trajectory(store, path, kind=args.kind)
            print(f"{path}: {len(created)} new runs (kind={args.kind})")
        print(f"store {store.root}: {len(store)} runs total")
        return 0

    if args.obs_command == "list":
        rows = [
            [
                entry["run_id"],
                entry["kind"],
                entry["created_at"],
                len(entry["values"]),
                ", ".join(
                    f"{k}={v}" for k, v in sorted(entry["labels"].items())
                    if k != DEDUPE_LABEL
                ),
            ]
            for entry in store.entries(kind=args.kind)
        ]
        print(render_table(["run", "kind", "created", "values", "labels"], rows))
        return 0

    if args.obs_command == "show":
        record = store.load(args.run_id)
        print(f"{record.run_id} (kind={record.kind}, created {record.created_at})")
        for key, value in sorted(record.labels.items()):
            print(f"  label {key} = {value}")
        if record.manifest:
            print(
                f"  manifest: config {record.manifest.get('config_fingerprint')} "
                f"git {record.manifest.get('git_revision')}"
            )
        print()
        print(render_table(
            ["value", "number"], sorted(record.values.items()), precision=6,
        ))
        return 0

    if args.obs_command == "diff":
        from repro.obs.report import diff_records

        run_a, run_b = store.load(args.run_a), store.load(args.run_b)
        rows = [
            [row["metric"], row["a"], row["b"], row["delta"], row["pct"]]
            for row in diff_records(run_a.values, run_b.values)
        ]
        print(render_table(
            ["metric", args.run_a, args.run_b, "delta", "pct"],
            rows, precision=6,
        ))
        return 0

    if args.obs_command == "regress":
        from repro.obs.regress import regress_store

        report = regress_store(store, kind=args.kind, window=args.window)
        rows = [
            [
                verdict.kind or "-",
                verdict.metric,
                verdict.status,
                "-" if verdict.candidate is None else verdict.candidate,
                "-" if verdict.baseline_median is None
                else verdict.baseline_median,
                f"{verdict.deviation:+.2f}",
                verdict.method,
            ]
            for verdict in report.verdicts
        ]
        print(render_table(
            ["kind", "metric", "status", "latest", "baseline", "score", "method"],
            rows, precision=4,
        ))
        for verdict in report.verdicts:
            if verdict.status in ("warn", "regressed"):
                print(f"{verdict.status}: {verdict.evidence}")
        print(
            f"\nstatus: {report.status} ({len(report.regressed)} regressed, "
            f"{len(report.warned)} warned, window={report.window})"
        )
        if args.json:
            from repro.io.atomic import atomic_write_text
            from repro.obs.report import summarize_json

            atomic_write_text(args.json, summarize_json(report) + "\n")
            print(f"wrote report JSON: {args.json}")
        return report.exit_code(warn_only=args.warn_only)

    if args.obs_command == "dashboard":
        from repro.obs.report import render_terminal_dashboard, write_html_dashboard

        # Write the artifact before the terminal echo: the file must land
        # even when stdout goes away mid-print (e.g. piped through head).
        if args.html:
            path = write_html_dashboard(store, args.html, window=args.window)
        print(render_terminal_dashboard(store, window=args.window))
        if args.html:
            print(f"\nwrote dashboard: {path}")
        return 0

    raise AssertionError(
        f"unhandled obs command {args.obs_command!r}"
    )  # pragma: no cover


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import JobService

    service = JobService(
        args.root,
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        concurrency=args.concurrency,
        max_attempts=args.max_attempts,
        default_timeout=args.timeout,
        memory_limit_bytes=(
            args.memory_limit_mb * 1024 * 1024
            if args.memory_limit_mb is not None
            else None
        ),
    )

    async def _serve() -> None:
        await service.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    return 0


def _parse_override_flags(pairs: List[str]) -> dict:
    """--override FIELD=VALUE flags into an overrides mapping.

    Values go through TOML-ish literal parsing: ints, floats, and
    true/false become typed; everything else stays a string (the
    service's validation reports type mismatches with the field name).
    """
    import json as _json

    overrides = {}
    for pair in pairs:
        field, sep, raw = pair.partition("=")
        if not sep or not field:
            raise SystemExit(
                f"error: --override needs FIELD=VALUE, got {pair!r}"
            )
        try:
            value = _json.loads(raw)
        except ValueError:
            value = raw
        overrides[field] = value
    return overrides


def _command_jobs_top(args: argparse.Namespace, client) -> int:
    """Redraw a metrics-fed dashboard until ^C (or --iterations frames).

    Each frame is one ``/metrics`` scrape plus one job listing; the
    per-job sparkline accumulates the completeness gauge across frames,
    so history lives client-side and the server stays stateless.
    """
    import time as _time

    from repro.obs.live import metric_value, parse_prometheus, render_top_frame

    history: dict = {}
    frame_no = 0
    try:
        while True:
            status, text = client.metrics()
            if status != 200:
                print(f"error: GET /metrics -> HTTP {status}", file=sys.stderr)
                return 1
            parsed = parse_prometheus(text)
            status, body = client.list_jobs()
            jobs = body.get("jobs", []) if status == 200 else []
            for job in jobs:
                if job["state"] != "running":
                    continue
                done = metric_value(
                    parsed, "repro_job_completeness", job=job["job_id"]
                )
                if done is not None:
                    history.setdefault(job["job_id"], []).append(done)
            frame = render_top_frame(parsed, jobs, history)
            if not args.no_clear and frame_no:
                # Home the cursor and clear below it: repaint in place.
                sys.stdout.write("\x1b[H\x1b[J")
            print(frame, flush=True)
            frame_no += 1
            if args.iterations is not None and frame_no >= args.iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _command_jobs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.server.client import ServerClient, ServerUnavailable

    try:
        client = ServerClient.from_root(args.root)
    except ServerUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.jobs_command == "submit":
            submission: dict = {}
            if args.scenario:
                submission["scenario"] = args.scenario
            overrides = _parse_override_flags(args.override)
            if overrides:
                submission["overrides"] = overrides
            if args.priority:
                submission["priority"] = args.priority
            if args.timeout is not None:
                submission["timeout"] = args.timeout
            status, body, headers = client.submit(submission)
            print(_json.dumps(body, indent=2, sort_keys=True))
            if status == 429:
                retry = headers.get("Retry-After", "?")
                print(f"queue full; retry after ~{retry}s", file=sys.stderr)
                return 3
            if status not in (200, 201):
                return 1
            if args.wait:
                final = client.wait(body["job"]["job_id"])
                print(_json.dumps(final, indent=2, sort_keys=True))
                return 0 if final["state"] == "done" else 1
            return 0

        if args.jobs_command == "list":
            status, body = client.list_jobs(state=args.state)
            if status != 200:
                print(_json.dumps(body, indent=2, sort_keys=True))
                return 1
            rows = [
                [
                    job["job_id"],
                    job["state"],
                    job["priority"],
                    job["attempts"],
                    job.get("runtime_seconds", "-"),
                    (job.get("error") or "")[:48],
                ]
                for job in body["jobs"]
            ]
            print(render_table(
                ["job", "state", "prio", "attempts", "runtime", "error"], rows
            ))
            return 0

        if args.jobs_command == "status":
            status, body = client.status(args.job_id)
            print(_json.dumps(body, indent=2, sort_keys=True))
            return 0 if status == 200 else 1

        if args.jobs_command == "cancel":
            status, body = client.cancel(args.job_id)
            print(_json.dumps(body, indent=2, sort_keys=True))
            return 0 if status in (200, 202) else 1

        if args.jobs_command == "tail":
            try:
                for line in client.tail(args.job_id, follow=not args.no_follow):
                    print(_json.dumps(line, sort_keys=True))
            except BrokenPipeError:
                # Downstream (| head, a closed pager) stopped reading;
                # that ends the tail, it is not an error.
                sys.stderr.close()
                return 0
            return 0

        if args.jobs_command == "top":
            return _command_jobs_top(args, client)
    except ServerUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    raise AssertionError(
        f"unhandled jobs command {args.jobs_command!r}"
    )  # pragma: no cover


def _command_env(args: argparse.Namespace) -> int:
    """``repro env rollout`` — seeded episodes through IncentiveEnv.

    Works without gymnasium (the shim action space samples); each
    episode is fully deterministic in its seed, including the random
    policy's draws, so CI can pin the printed returns if it wants to.
    """
    import json as _json

    import numpy as np

    from repro import api

    overrides = {}
    if args.users is not None:
        overrides["n_users"] = args.users
    if args.tasks is not None:
        overrides["n_tasks"] = args.tasks
    if args.rounds is not None:
        overrides["rounds"] = args.rounds
    env = api.make_env(
        scenario=args.scenario,
        obs=args.obs,
        actions=args.actions,
        reward=args.reward,
        **overrides,
    )
    rows = []
    try:
        for seed in range(args.seeds):
            observation, _ = env.reset(seed=seed)
            draws = np.random.default_rng(seed)
            episode_return, rounds, paid = 0.0, 0, 0.0
            terminated = False
            while not terminated:
                if args.policy == "random":
                    action = draws.uniform(
                        0.0, 1.0, size=env.action_space.shape
                    ).astype(np.float32)
                else:
                    action = np.full(
                        env.action_space.shape, 0.5, dtype=np.float32
                    )
                observation, reward, terminated, _, info = env.step(action)
                episode_return += reward
                rounds += 1
                paid += info["paid"]
            rows.append({
                "seed": seed,
                "rounds": rounds,
                "return": round(episode_return, 6),
                "paid": round(paid, 2),
                "completeness": round(info["completeness"], 4),
                "fingerprint": env.fingerprint()[:16],
            })
    finally:
        env.close()
    if args.json:
        for row in rows:
            print(_json.dumps(row))
    else:
        print(f"{'seed':>4}  {'rounds':>6}  {'return':>10}  "
              f"{'paid':>10}  {'completeness':>12}  fingerprint")
        for row in rows:
            print(f"{row['seed']:>4}  {row['rounds']:>6}  "
                  f"{row['return']:>10.4f}  {row['paid']:>10.2f}  "
                  f"{row['completeness']:>12.4f}  {row['fingerprint']}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(
        verbosity=getattr(args, "verbose", 0),
        quiet=getattr(args, "quiet", False),
        json_output=getattr(args, "log_json", False),
    )
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "tables":
        return _command_tables()
    if args.command == "report":
        return _command_report(args)
    if args.command == "simulate":
        words = list(argv) if argv is not None else sys.argv[1:]
        return _command_simulate(args, command="repro " + " ".join(words))
    if args.command == "scenarios":
        return _command_scenarios(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "show":
        return _command_show(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "obs":
        return _command_obs(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "env":
        return _command_env(args)
    if args.command == "jobs":
        return _command_jobs(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
