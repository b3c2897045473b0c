"""Run the benchmark over many seeds and report each metric's spread.

    python3 benchmarks/suite/spread.py [--seeds FIRST COUNT] [--sets N]
        [--workload NAME ...] [--seconds T] [--json OUT]

Each set runs ``run.py`` once per seed and workload, alternating the
workload order (ABCD, DCBA, ...) so a noisy stretch of the machine is
spread over every workload instead of landing on one.  Set ``k`` uses
seeds ``FIRST + k*COUNT ..``, so sets share no inputs.  Per set and
metric it prints the run values in order (drift shows there), their
median and quartiles, and the interquartile distance as a share of the
median next to the metric's bound from ``BENCHMARK.json``.  With two or
more sets it also prints how far each later median moved from the
first, in the metric's worse direction, against the bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from stats import iqr_share, quartiles

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(lines[-1])


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 10),
                        metavar=("FIRST", "COUNT"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    first, count = args.seeds

    # values[set][workload][metric] = list in run order
    values = []
    for k in range(args.sets):
        got = {name: {metric: [] for metric in metrics} for name in names}
        for i in range(count):
            seed = first + k * count + i
            for name in (names if i % 2 == 0 else names[::-1]):
                started = perf_counter()
                doc = run_once(name, seed, seconds)
                wall = perf_counter() - started
                if not doc["correct"]:
                    raise SystemExit(f"{name} seed {seed}: outputs incorrect")
                for metric in metrics:
                    got[name][metric].append(doc["metrics"][metric]["value"])
                print(f"set {k + 1} seed {seed} {name}: {wall:.1f} s wall",
                      file=sys.stderr)
        values.append(got)
        print(f"== set {k + 1}: seeds {first + k * count}..{first + (k + 1) * count - 1}, "
              f"{seconds} s per run")
        for name in names:
            print(name)
            for metric, spec in metrics.items():
                series = got[name][metric]
                q1, q2, q3 = quartiles(series)
                spread = iqr_share(series)
                print(f"  {metric:<18} median {q2:>12.4f} q1 {q1:>12.4f} q3 {q3:>12.4f} "
                      f"spread {spread:>6.1%} bound {spec['bound']:.0%} "
                      f"({spread / spec['bound']:.2f} of it)")
                print("    runs " + " ".join(f"{v:.4g}" for v in series))

    for k in range(1, args.sets):
        print(f"== set {k + 1} median against set 1 (worse direction)")
        for name in names:
            for metric, spec in metrics.items():
                a = quartiles(values[0][name][metric])[1]
                b = quartiles(values[k][name][metric])[1]
                moved = worse_by(a, b, spec["better"])
                flag = "" if moved <= spec["bound"] else "  OVER BOUND"
                print(f"  {name:<16} {metric:<18} {a:>12.4f} -> {b:>12.4f} "
                      f"{moved:>+7.1%} (bound {spec['bound']:.0%}){flag}")

    if args.json is not None:
        args.json.write_text(json.dumps(
            {"seconds": seconds, "seeds": [first, count], "sets": values}, indent=1
        ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
