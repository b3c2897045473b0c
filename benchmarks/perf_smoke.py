"""Performance smoke benches: selector DP and the engine's round loop.

Each bench appends to the ``BENCH_selectors.json`` perf trajectory at
the repo root so regressions are visible in review diffs, among them:

- ``--bench selector`` (default): the vectorized DP vs the scalar
  reference DP on instances drawn from the paper's Section VI setup.
- ``--bench engine``: the engine's round throughput on a large sparse
  world (10k users at full scale).

Usage::

    python benchmarks/perf_smoke.py                 # full scale, repo-root json
    python benchmarks/perf_smoke.py --scale tiny    # CI smoke: seconds, no gate
    python benchmarks/perf_smoke.py --min-speedup 3 # fail below 3x
    python benchmarks/perf_smoke.py --bench engine --scale tiny
    python benchmarks/perf_smoke.py --obs-store .repro-obs  # + run store

A provenance manifest is written next to the trajectory file, and
``--obs-store`` lands the entry in a run-observatory store so
``repro obs regress`` can gate it against its baseline window.

Standalone on purpose (argparse + json, no pytest) so CI can run it as a
plain script and upload the json artifact.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.geometry.point import Point                      # noqa: E402
from repro.selection import CandidateTask, TaskSelectionProblem  # noqa: E402
from repro.selection.dp import DynamicProgrammingSelector   # noqa: E402
from repro.selection.reference_dp import ReferenceDPSelector  # noqa: E402

#: Paper Section VI constants: region side 3000 m, v*tau = 1 m/s * 1800 s.
AREA_HALF_SIDE = 1_500.0
TRAVEL_BUDGET = 1_800.0
COST_PER_METER = 0.002
REWARD_LEVELS = (0.5, 1.0, 1.5, 2.0, 2.5)


def paper_problem(rng, n_tasks):
    positions = rng.uniform(-AREA_HALF_SIDE, AREA_HALF_SIDE, size=(n_tasks, 2))
    rewards = rng.choice(REWARD_LEVELS, size=n_tasks)
    candidates = [
        CandidateTask(task_id=i, location=Point(float(x), float(y)), reward=float(r))
        for i, ((x, y), r) in enumerate(zip(positions, rewards))
    ]
    return TaskSelectionProblem.build(
        origin=Point(0.0, 0.0), candidates=candidates,
        max_distance=TRAVEL_BUDGET, cost_per_meter=COST_PER_METER,
    )


def time_selector(selector, problems, repeats):
    """Best-of-``repeats`` total wall time (s) to solve every problem."""
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        selections = [selector.select(problem) for problem in problems]
        timings.append(time.perf_counter() - started)
    return min(timings), selections


def run(n_tasks, instances, repeats, seed):
    rng = np.random.default_rng(seed)
    problems = [paper_problem(rng, n_tasks) for _ in range(instances)]
    reference_time, reference_sel = time_selector(
        ReferenceDPSelector(max_exact_tasks=n_tasks), problems, repeats
    )
    vectorized_time, vectorized_sel = time_selector(
        DynamicProgrammingSelector(max_exact_tasks=n_tasks), problems, repeats
    )
    # Both are exact: identical optimal profits, or the timing is meaningless.
    profit_gaps = [
        abs(a.profit - b.profit) for a, b in zip(reference_sel, vectorized_sel)
    ]
    assert max(profit_gaps) < 1e-9, f"solvers disagree: max gap {max(profit_gaps)}"
    return {
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "n_tasks": n_tasks,
        "instances": instances,
        "timing_repeats": repeats,
        "seed": seed,
        "reference_ms_per_call": 1e3 * reference_time / instances,
        "vectorized_ms_per_call": 1e3 * vectorized_time / instances,
        "speedup": reference_time / vectorized_time,
        "mean_profit": statistics.mean(s.profit for s in vectorized_sel),
    }


#: Engine-bench worlds: sparse city-scale geometry (city-50k's 2 000 tasks
#: at full scale) where per-user problem construction dominates.  Budgets
#: satisfy Eq. 9 feasibility (budget / (n_tasks * required) > step *
#: (levels - 1)).
ENGINE_SCALES = {
    "full": dict(
        n_users=10_000, n_tasks=2_000, rounds=3,
        area_side=56_000.0, budget=120_000.0,
    ),
    "tiny": dict(
        n_users=2_000, n_tasks=400, rounds=2,
        area_side=25_000.0, budget=24_000.0,
    ),
}


def _peak_rss_mb(profiler) -> float:
    """The profiler's peak RSS in MiB (0.0 when it never sampled)."""
    summary = profiler.summary()
    return round(summary.get("rss_peak_bytes", 0) / (1024 * 1024), 1)


def run_engine(n_users, n_tasks, rounds, area_side, budget, seed):
    """The engine's round throughput on one sparse city-scale world.

    Peak RSS over the run is sampled on a background thread and
    recorded alongside the throughput.
    """
    from repro.obs.profiler import ResourceProfiler
    from repro.simulation import SimulationConfig, make_engine

    config = SimulationConfig(
        n_users=n_users,
        n_tasks=n_tasks,
        rounds=rounds,
        area_side=area_side,
        budget=budget,
        deadline_range=(rounds, rounds),
        user_time_budget=600.0,
        selector="greedy",
        mechanism="on-demand",
        stream_rounds=True,
        seed=seed,
    )
    profiler = ResourceProfiler(interval=0.05).start()
    try:
        engine = make_engine(config)
        started = time.perf_counter()
        result = engine.run()
        wall = time.perf_counter() - started
    finally:
        profiler.stop()
    return {
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bench": "engine",
        "n_users": n_users,
        "n_tasks": n_tasks,
        "rounds": rounds,
        "seed": seed,
        "rounds_per_second": result.rounds_played / wall,
        "peak_rss_mb": _peak_rss_mb(profiler),
        "total_measurements": result.total_measurements,
    }


def run_scenario(scenario, seed=None):
    """One preset end to end: wall time, throughput, and peak RSS.

    The scenario bench is the city-scale anchor recorder: it runs a
    named preset (``city-2k`` in CI, ``city-50k`` / ``city-1m`` for the
    pinned anchors) through the public facade and reports the numbers
    the obs regression gate tracks.
    """
    from repro.obs.profiler import ResourceProfiler
    from repro.scenarios import get_preset
    from repro.simulation import make_engine

    overrides = {} if seed is None else {"seed": seed}
    config = get_preset(scenario).to_config(**overrides)
    profiler = ResourceProfiler(interval=0.05).start()
    try:
        engine = make_engine(config)
        started = time.perf_counter()
        result = engine.run()
        wall = time.perf_counter() - started
    finally:
        profiler.stop()
    entry = {
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # The bench name carries the preset so every scenario keeps its
        # own obs series (and regression baseline): mixing city-2k and
        # city-1m wall times in one series would gate on noise.
        "bench": f"scenario-{scenario}",
        "scenario": scenario,
        "n_users": config.n_users,
        "n_tasks": config.n_tasks,
        "rounds": config.rounds,
        "distance_dtype": config.distance_dtype,
        "seed": config.seed,
        "wall_seconds": round(wall, 3),
        "rounds_per_second": result.rounds_played / wall,
        "peak_rss_mb": _peak_rss_mb(profiler),
        "total_measurements": result.total_measurements,
    }
    return entry


def run_dynamics(scenario="task-stream-2k", seed=None, scale="full"):
    """Churn-on vs churn-off throughput of one open-world preset.

    Runs the named preset twice — once as
    configured (dynamics on) and once with an emptied dynamics block
    (the closed-world control) — and reports both throughputs plus
    ``dynamics_overhead``, the *per-round* wall-time ratio
    (mean churn-round seconds / mean closed-round seconds).  The two
    runs can play very different round counts (the closed control stops
    once its seed tasks settle; the churn run keeps going while the
    stream owes tasks), so raw wall times are not comparable — the
    per-round ratio is.  Gating on it catches the open-world
    bookkeeping (array rebuilds, counter re-priming)
    getting slower without conflating it with general engine drift.
    """
    from repro.obs.profiler import ResourceProfiler
    from repro.scenarios import get_preset
    from repro.simulation import make_engine

    overrides = {} if seed is None else {"seed": seed}
    if scale == "tiny":
        overrides.update(n_users=400, rounds=5)
    config = get_preset(scenario).to_config(**overrides)
    if not config.dynamics:
        raise SystemExit(
            f"--bench dynamics needs an open-world scenario; "
            f"{scenario!r} has an empty dynamics block"
        )
    profiler = ResourceProfiler(interval=0.05).start()
    try:
        timings, results = {}, {}
        for label, cfg in (
            ("churn", config),
            ("baseline", config.with_overrides(dynamics={})),
        ):
            engine = make_engine(cfg)
            started = time.perf_counter()
            results[label] = engine.run()
            timings[label] = time.perf_counter() - started
    finally:
        profiler.stop()
    entry = {
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bench": "dynamics",
        "scenario": scenario,
        "n_users": config.n_users,
        "n_tasks": config.n_tasks,
        "rounds": config.rounds,
        "seed": config.seed,
        "churn_rounds_per_second": (
            results["churn"].rounds_played / timings["churn"]
        ),
        "baseline_rounds_per_second": (
            results["baseline"].rounds_played / timings["baseline"]
        ),
        "dynamics_overhead": (
            (timings["churn"] / max(1, results["churn"].rounds_played))
            / (timings["baseline"] / max(1, results["baseline"].rounds_played))
        ),
        "peak_rss_mb": _peak_rss_mb(profiler),
        "total_measurements": results["churn"].total_measurements,
    }
    return entry


def run_obs(scale="tiny", seed=0):
    """Live-layer overhead: the engine bare vs fully observed.

    Runs one engine-bench world twice — once bare, once with the whole
    live-operations stack attached (a :class:`SpanTracer` collecting
    round/phase spans plus a :class:`ProgressWriter` reading the
    engine's ledger and replacing ``progress.json`` after every round,
    atomically but without fsync, as a job worker does) — and reports the
    per-round wall ratio as ``obs_overhead``.  Gating on the ratio
    rather than either throughput keeps the live layer regress-gated
    without conflating it with general engine drift.  The two runs must
    agree on measurements and payout: observability never changes the
    simulated numbers.
    """
    import tempfile

    from repro.obs.live import ProgressWriter
    from repro.obs.profiler import ResourceProfiler
    from repro.obs.trace import SpanTracer
    from repro.simulation import SimulationConfig, make_engine

    dims = ENGINE_SCALES[scale]
    config = SimulationConfig(
        n_users=dims["n_users"],
        n_tasks=dims["n_tasks"],
        rounds=dims["rounds"],
        area_side=dims["area_side"],
        budget=dims["budget"],
        deadline_range=(dims["rounds"], dims["rounds"]),
        user_time_budget=600.0,
        selector="greedy",
        mechanism="on-demand",
        stream_rounds=True,
        seed=seed,
    )
    # One untimed run of the same config first, so both timed runs are
    # warm (imports, caches, allocator) and the ratio compares like
    # with like.
    make_engine(config).run()
    profiler = ResourceProfiler(interval=0.05).start()
    try:
        timings, results = {}, {}
        with tempfile.TemporaryDirectory(prefix="repro-obs-bench-") as tmp:
            for label in ("plain", "live"):
                kwargs = {}
                if label == "live":
                    kwargs["tracer"] = SpanTracer(metadata={"bench": "obs"})
                engine = make_engine(config, **kwargs)
                if label == "live":
                    engine.observers.append(
                        ProgressWriter(tmp, "bench-obs", engine)
                    )
                started = time.perf_counter()
                results[label] = engine.run()
                timings[label] = time.perf_counter() - started
    finally:
        profiler.stop()
    plain, live = results["plain"], results["live"]
    assert plain.total_measurements == live.total_measurements, (
        f"live layer changed the campaign: {plain.total_measurements} "
        f"vs {live.total_measurements} measurements"
    )
    assert abs(plain.total_paid - live.total_paid) < 1e-9, (
        f"live layer changed the payout: {plain.total_paid} "
        f"vs {live.total_paid}"
    )
    return {
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bench": "obs",
        "n_users": config.n_users,
        "n_tasks": config.n_tasks,
        "rounds": config.rounds,
        "seed": seed,
        "plain_rounds_per_second": (
            plain.rounds_played / timings["plain"]
        ),
        "live_rounds_per_second": (
            live.rounds_played / timings["live"]
        ),
        "obs_overhead": (
            (timings["live"] / max(1, live.rounds_played))
            / (timings["plain"] / max(1, plain.rounds_played))
        ),
        "peak_rss_mb": _peak_rss_mb(profiler),
        "total_measurements": plain.total_measurements,
    }


def run_env(scale="tiny", seed=0):
    """Session-stepping overhead: ``simulate()`` vs an actionless session.

    Runs one engine-bench world twice — once through the run-to-
    completion entry point and once stepped round by round through
    :func:`~repro.simulation.session.open_session` with an ``observe()``
    before every ``step()`` (the environment's access pattern) — and
    reports the per-round wall ratio as ``session_overhead``.  The two
    histories must agree on measurements and payout: the session is the
    same kernel, so any drift is a bug, and any overhead beyond ~1.1x
    means the session shell (snapshot building, cache bookkeeping) has
    started costing real time.
    """
    from repro.obs.profiler import ResourceProfiler
    from repro.simulation import SimulationConfig, open_session, simulate

    dims = ENGINE_SCALES[scale]
    config = SimulationConfig(
        n_users=dims["n_users"],
        n_tasks=dims["n_tasks"],
        rounds=dims["rounds"],
        area_side=dims["area_side"],
        budget=dims["budget"],
        deadline_range=(dims["rounds"], dims["rounds"]),
        user_time_budget=600.0,
        selector="greedy",
        mechanism="on-demand",
        stream_rounds=True,
        seed=seed,
    )
    # Warm up on the same config: timing the first simulate() cold used
    # to charge it the warmup and read as a sub-1.0x session overhead.
    simulate(config)
    profiler = ResourceProfiler(interval=0.05).start()
    try:
        started = time.perf_counter()
        direct = simulate(config)
        direct_wall = time.perf_counter() - started
        started = time.perf_counter()
        with open_session(config) as session:
            while not session.finished:
                session.observe()
                session.step()
            stepped = session.result()
        session_wall = time.perf_counter() - started
    finally:
        profiler.stop()
    assert direct.total_measurements == stepped.total_measurements, (
        f"session drifted from simulate(): {direct.total_measurements} "
        f"vs {stepped.total_measurements} measurements"
    )
    assert abs(direct.total_paid - stepped.total_paid) < 1e-9, (
        f"session drifted from simulate(): paid {direct.total_paid} "
        f"vs {stepped.total_paid}"
    )
    return {
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bench": "env",
        "n_users": config.n_users,
        "n_tasks": config.n_tasks,
        "rounds": config.rounds,
        "seed": seed,
        "simulate_rounds_per_second": (
            direct.rounds_played / direct_wall
        ),
        "session_rounds_per_second": (
            stepped.rounds_played / session_wall
        ),
        "session_overhead": (
            (session_wall / max(1, stepped.rounds_played))
            / (direct_wall / max(1, direct.rounds_played))
        ),
        "peak_rss_mb": _peak_rss_mb(profiler),
        "total_measurements": direct.total_measurements,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench",
                        choices=("selector", "engine", "scenario", "dynamics",
                                 "obs", "env"),
                        default="selector",
                        help="selector = DP microbench (default); "
                             "engine = round throughput on a sparse "
                             "city-scale world; "
                             "scenario = one named preset end to end "
                             "(wall/rounds-per-second/peak-RSS); "
                             "dynamics = churn-on vs churn-off throughput "
                             "of an open-world preset")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny = a seconds-long CI smoke run")
    parser.add_argument("--scenario", default="city-2k", metavar="NAME",
                        help="preset for --bench scenario (default city-2k)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_selectors.json"),
                        help="trajectory file to append to")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero if the speedup falls below this")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--obs-store", default=None, metavar="DIR",
                        help="also ingest the entry into a run-observatory "
                             "store (see 'repro obs')")
    args = parser.parse_args(argv)

    if args.bench == "engine":
        entry = run_engine(seed=args.seed, **ENGINE_SCALES[args.scale])
    elif args.bench == "scenario":
        entry = run_scenario(args.scenario, seed=args.seed)
    elif args.bench == "dynamics":
        scenario = (
            args.scenario if args.scenario != "city-2k" else "task-stream-2k"
        )
        entry = run_dynamics(scenario, seed=args.seed, scale=args.scale)
    elif args.bench == "obs":
        entry = run_obs(scale=args.scale, seed=args.seed)
    elif args.bench == "env":
        entry = run_env(scale=args.scale, seed=args.seed)
    elif args.scale == "tiny":
        entry = run(n_tasks=12, instances=5, repeats=2, seed=args.seed)
    else:
        entry = run(n_tasks=20, instances=30, repeats=3, seed=args.seed)
    entry["scale"] = args.scale

    out = Path(args.out)
    trajectory = json.loads(out.read_text()) if out.exists() else []
    trajectory.append(entry)
    out.write_text(json.dumps(trajectory, indent=2) + "\n")

    # Provenance next to the numbers: which tree, interpreter, and host
    # produced the entry (never a reason to fail the bench itself).
    from repro.obs.manifest import build_manifest, write_manifest  # noqa: E402

    manifest_path = write_manifest(
        build_manifest(
            base_seed=args.seed,
            command="python benchmarks/perf_smoke.py "
                    f"--bench {args.bench} --scale {args.scale} "
                    f"--seed {args.seed}",
            bench=args.bench,
            scale=args.scale,
            n_tasks=entry["n_tasks"],
            instances=entry.get("instances", entry.get("n_users")),
        ),
        out,
    )
    print(f"wrote manifest: {manifest_path}")

    if args.obs_store:
        from repro.obs.store import ingest_bench_trajectory  # noqa: E402
        from repro.obs.store import RunStore

        store = RunStore(args.obs_store)
        created = ingest_bench_trajectory(store, out)
        print(
            f"recorded in store {store.root}: {len(created)} new runs "
            f"({len(store)} total)"
        )

    if args.bench == "engine":
        speedup = None
        print(
            f"{entry['n_users']} users x {entry['n_tasks']} tasks x "
            f"{entry['rounds']} rounds: "
            f"{entry['rounds_per_second']:.2f} rounds/s "
            f"(peak RSS {entry['peak_rss_mb']:.0f} MiB, "
            f"{entry['total_measurements']} measurements)"
        )
    elif args.bench == "scenario":
        speedup = None
        print(
            f"{entry['scenario']}: {entry['n_users']} users x "
            f"{entry['n_tasks']} tasks x {entry['rounds']} rounds "
            f"[{entry['distance_dtype']}] in {entry['wall_seconds']:.1f}s "
            f"({entry['rounds_per_second']:.2f} rounds/s, "
            f"peak RSS {entry['peak_rss_mb']:.0f} MiB, "
            f"{entry['total_measurements']} measurements)"
        )
    elif args.bench == "dynamics":
        speedup = None
        print(
            f"{entry['scenario']}: "
            f"churn {entry['churn_rounds_per_second']:.2f} rounds/s vs "
            f"closed {entry['baseline_rounds_per_second']:.2f} rounds/s "
            f"-> per-round overhead {entry['dynamics_overhead']:.2f}x "
            f"(peak RSS {entry['peak_rss_mb']:.0f} MiB, "
            f"{entry['total_measurements']} measurements)"
        )
    elif args.bench == "obs":
        speedup = None
        print(
            f"{entry['n_users']} users x {entry['n_tasks']} tasks x "
            f"{entry['rounds']} rounds: "
            f"plain {entry['plain_rounds_per_second']:.2f} rounds/s vs "
            f"live {entry['live_rounds_per_second']:.2f} rounds/s "
            f"-> per-round overhead {entry['obs_overhead']:.2f}x "
            f"(peak RSS {entry['peak_rss_mb']:.0f} MiB, "
            f"{entry['total_measurements']} measurements)"
        )
    elif args.bench == "env":
        speedup = None
        print(
            f"{entry['n_users']} users x {entry['n_tasks']} tasks x "
            f"{entry['rounds']} rounds: "
            f"simulate {entry['simulate_rounds_per_second']:.2f} rounds/s vs "
            f"session {entry['session_rounds_per_second']:.2f} rounds/s "
            f"-> per-round overhead {entry['session_overhead']:.2f}x "
            f"(peak RSS {entry['peak_rss_mb']:.0f} MiB, "
            f"{entry['total_measurements']} measurements)"
        )
    else:
        speedup = entry["speedup"]
        print(
            f"{entry['n_tasks']} tasks x {entry['instances']} instances: "
            f"reference {entry['reference_ms_per_call']:.2f} ms/call, "
            f"vectorized {entry['vectorized_ms_per_call']:.2f} ms/call "
            f"-> {speedup:.1f}x"
        )
    print(f"recorded in {out}")
    if args.min_speedup is not None and speedup is None:
        print(
            f"NOTE: --min-speedup has no meaning for --bench {args.bench} "
            "(no reference is timed); ignoring",
            file=sys.stderr,
        )
        return 0
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(
            f"FAIL: speedup {speedup:.2f}x below the "
            f"{args.min_speedup:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
