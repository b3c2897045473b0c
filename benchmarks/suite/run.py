"""Run one benchmark workload and print its metrics.

    python3 benchmarks/suite/run.py --workload paper-campaign [--seed N]
        [--seconds T] [--trace 0|1] [--trace-dir DIR] [--json OUT]
    python3 benchmarks/suite/run.py --write-expected [--workload NAME ...]

The workload runs in fresh child processes (``child.py``).  Set-up is
timed from outside: the child is spawned several times, each time from
spawn until it reports ready (interpreter start, imports and the
workload's set-up), and ``setup_s`` is the median.  All but the last
child then exit; the last warms up, runs the timed loop for ``--seconds``
and checks its outputs.

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` every other operation is traced and the metrics are the
per-layer ones (see README.md).  Every metric is printed with its unit
and sample count; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every output check passed, 1 when one did not or the workload
could not run, and 2 when this is not a checkout with ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
from stats import failed_ratio, median, normalize, percentile, tail_percentile
from workloads import WORKLOADS

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
EXPECTED = SUITE / "expected.json"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5

#: The calibration kernel for set-ups: on every workload it tracked them
#: better than the ``code`` kernel did (README.md).
SETUP_CALIBRATION = "data"

#: Seeds ``--write-expected`` records golden digests for.
EXPECTED_SEEDS = range(32)

#: Seconds a child may take to become ready, and to finish after the
#: timed loop.
READY_TIMEOUT = 300
FINISH_TIMEOUT = 300


class ChildFailed(RuntimeError):
    """A workload process died, hung or answered out of protocol."""


def child_env() -> dict:
    env = dict(os.environ)
    # Children import from bytecode caches as an installed package does,
    # whatever the caller's environment says: set-up then measures the
    # same thing on every machine (the first spawn in a fresh checkout
    # writes the caches; the median of the set-ups drops it).
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(SUITE / "child.py"), *argv],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
        cwd=ROOT, env=child_env(),
    )


def wait_ready(proc: subprocess.Popen) -> None:
    readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT)
    line = proc.stdout.readline() if readable else b""
    if line.strip() != b"ready":
        proc.kill()
        proc.wait()
        raise ChildFailed(
            f"workload process did not become ready (exit {proc.returncode})"
        )


def command(proc: subprocess.Popen, word: str, timeout: float) -> str:
    """Send ``word``, wait for the child to exit; its stdout."""
    try:
        out, _ = proc.communicate(f"{word}\n".encode(), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"workload process still running after {timeout:.0f} s")
    if proc.returncode != 0:
        raise ChildFailed(f"workload process exited {proc.returncode}")
    return out.decode()


def run_workload(args, workdir: Path):
    """Set up several times, run the last.

    Returns the set-up seconds, the calibration samples taken around
    them, and the child's result.
    """
    argv = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--expected", str(EXPECTED),
    ]
    if args.trace and args.trace_dir is not None:
        argv += ["--trace-out", str(args.trace_dir / f"{args.workload}.trace.json")]
    calibrate.sample(SETUP_CALIBRATION)  # the cold first sample, dropped
    samples = [calibrate.sample(SETUP_CALIBRATION)]
    setups = []
    count = 1 if args.trace else SETUPS
    for attempt in range(count):
        started = perf_counter()
        proc = spawn(argv)
        try:
            wait_ready(proc)
            setups.append((started, perf_counter() - started))
            samples.append(calibrate.sample(SETUP_CALIBRATION))
            if attempt < count - 1:
                command(proc, "exit", READY_TIMEOUT)
                continue
            out = command(proc, "go", args.seconds + FINISH_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed("workload process printed no result")
    return setups, samples, json.loads(lines[-1])


def end_to_end(result, setups, samples):
    """The end-to-end metrics: name → (value, unit, samples, note).

    Times are at the reference machine speed (``calibrate.py``); the
    notes give the raw wall-clock value next to each.
    """
    latencies, raw = result["normalized"], result["latencies"]
    n = len(latencies)
    tail = result["tail"]
    setup = normalize(setups, samples, calibrate.REFERENCE_SECONDS[SETUP_CALIBRATION])
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    short = "" if tail_percentile(n) >= tail else ", fewer than 10 beyond"
    return {
        "latency_ms_p50": (median(latencies) * 1e3, "ms", n,
                           f"median; raw {median(raw) * 1e3:.3f}"),
        "latency_ms_tail": (percentile(latencies, tail) * 1e3, "ms", n,
                            f"p{tail}{short}; raw {percentile(raw, tail) * 1e3:.3f}"),
        "throughput_per_s": (n / sum(latencies), "1/s", n,
                             f"ops / busy seconds; raw {n / sum(raw):.4f}"),
        "setup_s": (median(setup), "s", len(setup),
                    f"median of set-ups; raw {median([s for _, s in setups]):.4f}"),
        "peak_rss_mb": (peak_kib / 1024, "MB", 1, "largest process started"),
    }


def per_layer(result):
    """The per-layer metrics: name → (value, unit, samples, note)."""
    layers = result["layers"]
    ops = layers["ops"]
    metrics = {
        name: (value, layers["units"][name], ops, "per traced op")
        for name, value in layers["metrics"].items()
    }
    untraced, traced = result["latencies"], result["traced"]
    metrics["trace_overhead"] = (
        median(traced) / median(untraced), "ratio", len(traced),
        f"traced / untraced median ({len(untraced)} untraced)",
    )
    return metrics


def print_layers(result) -> None:
    layers = result["layers"]
    print(f"layers of {result['workload']}: {layers['ops']} traced ops, "
          f"{layers['op_ms']:.3f} ms per op")
    print(f"  {'span':<26} {'self ms/op':>11} {'spans/op':>9} {'share':>7}")
    for name, row in layers["layers"].items():
        print(f"  {name:<26} {row['self_ms']:>11.4f} {row['spans_per_op']:>9.2f} "
              f"{row['share']:>7.1%}")
    for name, row in layers["extra"].items():
        print(f"  {name:<26} {row['ms']:>11.4f} {'-':>9} {row['share']:>7.1%}"
              f"  (from service timestamps)")
    for name, values in result["side"].items():
        print(f"  {name:<26} {median(values) * 1e3:>11.4f}  "
              f"(outside ops, median of {len(values)})")


def write_layers(trace_dir: Path, result, metrics) -> None:
    """Merge this workload's layer table into ``trace_dir/layers.json``."""
    path = trace_dir / "layers.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[result["workload"]] = {
        **result["layers"],
        "side_ms": {k: median(v) * 1e3 for k, v in result["side"].items()},
        "trace_overhead": metrics["trace_overhead"][0],
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def write_expected(names) -> int:
    """Regenerate ``expected.json`` for ``names`` (slow: minutes)."""
    doc = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    workdir = ROOT / ".bench_work" / f"expected-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            proc = spawn([
                "--workload", name, "--workdir", str(workdir),
                "--expected", str(EXPECTED),
                "--reference", *map(str, EXPECTED_SEEDS),
            ])
            out, _ = proc.communicate()
            if proc.returncode != 0:
                print(f"{name}: reference run exited {proc.returncode}", file=sys.stderr)
                return 1
            doc[name] = json.loads(out.decode().strip().splitlines()[-1])
            print(f"{name}: digests for seeds {EXPECTED_SEEDS.start}.."
                  f"{EXPECTED_SEEDS.stop - 1}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=list(WORKLOADS), action="append")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (operation i uses seed*1000+i)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="with --trace 1: write <workload>.trace.json "
                             "(Chrome/Perfetto) and layers.json here")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the result object to this file")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected.json instead of measuring")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.write_expected:
        return write_expected(args.workload or list(WORKLOADS))
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    args.workload = args.workload[0]
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.trace_dir is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, samples, result = run_workload(args, workdir)
    except ChildFailed as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not result["latencies"] or (args.trace and not result["traced"]):
        print(f"run.py: {args.workload}: no operation succeeded "
              f"({result['failed']} of {result['attempted']} failed)", file=sys.stderr)
        return 1
    metrics = per_layer(result) if args.trace else end_to_end(result, setups, samples)
    print(f"{result['workload']}: {result['op']}")
    print(f"  machine speed during the loop: {result['speed']:.3f}x reference")
    for check in result["checks"]:
        verdict = {True: "ok", False: "MISMATCH", None: "skipped"}[check["ok"]]
        print(f"  check {check['check']:<32} {verdict:<8} {check['detail']}")
    if args.trace:
        print_layers(result)
        if args.trace_dir is not None:
            write_layers(args.trace_dir, result, metrics)
    for name, (value, unit, samples, note) in metrics.items():
        print(f"  {name:<34} {value:>14.6f} {unit:<6} n={samples:<5} {note}")

    print(f"  failed {result['failed']} of {result['attempted']} operations "
          f"(failed_ratio {failed_ratio(result['failed'], result['attempted']):.4f})")
    correct = result["failed"] == 0 and all(c["ok"] is not False for c in result["checks"])
    doc = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in metrics.items()},
    }
    if args.json is not None:
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
