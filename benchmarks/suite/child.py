"""One workload in a fresh process; ``run.py`` spawns it, not a user.

Protocol: after :meth:`~workloads.Workload.setup` the child writes
``ready`` to stdout and reads one command from stdin — ``go`` (warm up,
run the timed loop, check the outputs, then write one JSON result line)
or ``exit``.  Anything else the process prints goes to stderr, so stdout
carries the protocol only.

With ``--reference`` it instead prints, for each seed given, the golden
digests ``expected.json`` holds (``run.py --write-expected``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate
from stats import median, normalize
from workloads import WORKLOADS

#: Failed operations after which a run stops trying.
MAX_FAILURES = 10


def measure(workload, seconds: float, probe):
    """The timed loop: operations until ``seconds`` pass (and min_ops).

    Returns the untraced operations as (start, seconds) pairs, the traced
    operations' seconds, the calibration samples taken between
    operations, and the attempted and failed counts.
    """
    kind = workload.calibration
    calibrate.sample(kind)  # the cold first sample, dropped
    samples = [calibrate.sample(kind)]
    untraced, traced = [], []
    attempted = failed = 0
    since_sample = 0.0
    deadline = perf_counter() + seconds
    index = 0
    while (index < workload.min_ops or perf_counter() < deadline) and failed < MAX_FAILURES:
        attempted += 1
        started = perf_counter()
        try:
            latency, was_traced = workload.run_op(index, probe)
        except Exception:  # noqa: BLE001 - a raising operation is a failed one
            failed += 1
            traceback.print_exc()
            workload.recover()
        else:
            if was_traced:
                traced.append(latency)
            else:
                untraced.append((started, latency))
                since_sample += latency
                if since_sample >= calibrate.EVERY_SECONDS:
                    samples.append(calibrate.sample(kind))
                    since_sample = 0.0
        index += 1
    return untraced, traced, samples, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--expected", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="write the traced run's Chrome trace here")
    parser.add_argument("--reference", type=int, nargs="+", metavar="SEED",
                        help="print the golden digests for these seeds")
    args = parser.parse_args()

    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    expected = json.loads(args.expected.read_text()) if args.expected.exists() else {}
    factory = WORKLOADS[args.workload]

    if args.reference:
        digests = {}
        for seed in args.reference:
            workload = factory(seed, args.workdir, expected)
            digests[str(seed)] = workload.reference()
            if workload.golden_warmup and "warmup" not in digests:
                digests["warmup"] = workload.warmup()
            workload.close()
        proto.write(json.dumps(digests) + "\n")
        return 0

    workload = factory(args.seed, args.workdir, expected)
    try:
        workload.setup()
        proto.write("ready\n")
        proto.flush()
        if sys.stdin.readline().strip() != "go":
            return 0
        probe = None
        if args.trace:
            from probe import Probe

            probe = Probe()
        workload.check_warmup()
        untraced, traced, samples, attempted, failed = measure(
            workload, args.seconds, probe
        )
        workload.finish(probe)
        if probe is not None and args.trace_out is not None:
            probe.tracer.write_chrome(args.trace_out)
        attempted += workload.warmup_ops
        reference = calibrate.REFERENCE_SECONDS[workload.calibration]
        proto.write(json.dumps({
            "workload": workload.name,
            "op": workload.op,
            "tail": workload.tail,
            "latencies": [seconds for _, seconds in untraced],
            "normalized": normalize(untraced, samples, reference),
            "speed": reference / median([s for _, s in samples]),
            "traced": traced,
            "attempted": attempted,
            "failed": min(attempted, failed + workload.failed),
            "checks": workload.checks,
            "side": workload.side,
            "layers": probe.summary() if probe is not None else None,
        }) + "\n")
        proto.flush()
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
