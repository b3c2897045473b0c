"""Statistics for the benchmark harness (stdlib only).

Kept apart from the runner so ``test_stats.py`` can pin the rules the
reported numbers rest on: percentiles, the tail-percentile rule, span
self time and failure accounting.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile, linear between closest ranks.

    This is numpy's default ("linear") method: rank ``(n - 1) * pct/100``
    interpolated between its two neighbours.

    Raises:
        ValueError: for an empty sample or a percentile outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {pct}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    That is the spread rule a benchmark consumer applies across runs, so
    the harness reports spreads the same way.
    """
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when flat)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail_percentile(samples: int, beyond: int = 10, step: int = 5) -> int:
    """The highest multiple of ``step`` percentile with at least
    ``beyond`` samples above it in a sample of size ``samples``.

    Levels move in steps of 5 so a run a few samples shorter or longer
    reports the same level.  Never below the median: a sample too small
    for any tail reports p50.

    >>> tail_percentile(210), tail_percentile(42), tail_percentile(30)
    (95, 75, 65)
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    level = 100 - step
    while level > 50 and samples * (100 - level) / 100.0 < beyond:
        level -= step
    return level


def normalize(
    ops: Sequence[Tuple[float, float]],
    samples: Sequence[Tuple[float, float]],
    reference: float,
) -> List[float]:
    """Operation times rescaled to the reference machine speed.

    ``ops`` are ``(start, seconds)`` pairs and ``samples`` are
    ``(when, kernel seconds)`` calibration samples in time order.  Each
    operation is scaled by ``reference`` over the median of the two
    samples taken before it started and the two after.  The host's speed
    moves within seconds, so one factor per run would leave most of the
    noise in; the median of four samples drops a single sample that read
    slow (say, while a finished job's processes wound down).

    Raises:
        ValueError: when there is no calibration sample.
    """
    if not samples:
        raise ValueError("normalize needs at least one calibration sample")
    times = [when for when, _ in samples]
    out = []
    for start, seconds in ops:
        at = bisect.bisect_left(times, start)
        near = [kernel for _, kernel in samples[max(0, at - 2):at + 2]]
        out.append(seconds * reference / median(near))
    return out


def failed_ratio(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones.

    Raises:
        ValueError: when nothing was attempted, or more failed than ran.
    """
    if attempted < 1:
        raise ValueError("failed_ratio needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def self_times(
    spans: Iterable[Tuple[str, float, float]],
) -> Dict[str, Tuple[float, int]]:
    """Per span name: (summed self time, span count).

    ``spans`` are ``(name, start, duration)`` triples from one thread, so
    any two either nest or do not overlap.  A span's self time is its
    duration minus the durations of its direct children; the self times
    of a tree therefore add up to its root's duration.
    """
    totals: Dict[str, List[float]] = {}
    # Open spans, outermost first: [name, end, duration, children's time].
    stack: List[list] = []

    def close() -> None:
        name, _, duration, children = stack.pop()
        entry = totals.setdefault(name, [0.0, 0])
        entry[0] += duration - children
        entry[1] += 1

    # Parents sort before the children that share their start.
    for name, start, duration in sorted(spans, key=lambda s: (s[1], -s[2])):
        while stack and stack[-1][1] <= start:
            close()
        if stack:
            stack[-1][3] += duration
        stack.append([name, start + duration, duration, 0.0])
    while stack:
        close()
    return {name: (spent, int(count)) for name, (spent, count) in totals.items()}
