"""Baseline-window regression detection over run-store series.

The verdict a CI job needs is not "what is the number" but "is the
latest number *out of family*".  Following the rolling-baseline pattern
(score the candidate against a window of recent history, not a single
golden snapshot), each metric's latest value is compared against the
previous ``window`` runs of the same kind:

- **Robust z-score** (the primary method, windows of >= ``min_window``
  with spread): deviation is measured in units of scaled MAD
  (``1.4826 * median(|x - median|)``), which one historical outlier
  cannot inflate the way a standard deviation can.
- **Relative threshold** (the fallback for short windows or zero MAD,
  i.e. a bit-identical history): deviation as a fraction of the
  baseline median.

Both produce a *signed* deviation oriented by the metric's
:class:`MetricSpec` direction — for ``higher-is-worse`` metrics
(latencies, bytes, rejection counts) only increases regress; for
``lower-is-worse`` ones (speedups, coverage) only decreases do;
``two-sided`` flags any drift (the default for unrecognised series).

Verdicts are typed (:class:`Verdict`: ok / warn / regressed / skipped,
with the evidence inline) and roll up into a :class:`RegressionReport`
whose :meth:`~RegressionReport.exit_code` is what ``repro obs regress``
returns — CI fails on ``regressed`` unless ``--warn-only``.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.store import RunStore

#: Consistency constant: scaled MAD estimates sigma for normal data.
MAD_SCALE = 1.4826

#: Verdict statuses, mildest first (index = severity).
STATUSES = ("skipped", "ok", "warn", "regressed")


@dataclass(frozen=True)
class MetricSpec:
    """How one metric regresses.

    Args:
        name: the store value name.
        direction: ``higher-is-worse`` | ``lower-is-worse`` | ``two-sided``.
    """

    name: str
    direction: str = "two-sided"

    def __post_init__(self) -> None:
        if self.direction not in ("higher-is-worse", "lower-is-worse", "two-sided"):
            raise ValueError(f"unknown direction {self.direction!r}")


@dataclass(frozen=True)
class Thresholds:
    """Detection knobs: z-scores for the MAD method, fractions for relative.

    Defaults are deliberately loose (z >= 6, +50 % relative) — a perf
    gate that cries wolf gets disabled; a 2x latency regression clears
    both bars by a wide margin.
    """

    z_warn: float = 3.5
    z_fail: float = 6.0
    rel_warn: float = 0.20
    rel_fail: float = 0.50
    min_window: int = 4

    def __post_init__(self) -> None:
        if not (0 < self.z_warn <= self.z_fail):
            raise ValueError(f"need 0 < z_warn <= z_fail, got {self}")
        if not (0 < self.rel_warn <= self.rel_fail):
            raise ValueError(f"need 0 < rel_warn <= rel_fail, got {self}")
        if self.min_window < 1:
            raise ValueError(f"min_window must be >= 1, got {self.min_window}")


DEFAULT_THRESHOLDS = Thresholds()


@dataclass(frozen=True)
class Verdict:
    """One metric's regression verdict, with its evidence.

    ``deviation`` is the signed score in the method's units (MAD-z or
    baseline fraction); positive means "worse" under the spec's
    direction (absolute drift for two-sided specs).
    """

    metric: str
    status: str
    direction: str
    method: str
    candidate: Optional[float]
    baseline: Tuple[float, ...]
    baseline_median: Optional[float]
    deviation: float
    threshold: float
    evidence: str
    kind: Optional[str] = None

    @property
    def severity(self) -> int:
        return STATUSES.index(self.status)

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


def _skipped(spec: MetricSpec, reason: str, kind: Optional[str]) -> Verdict:
    return Verdict(
        metric=spec.name, status="skipped", direction=spec.direction,
        method="insufficient-data", candidate=None, baseline=(),
        baseline_median=None, deviation=0.0, threshold=0.0,
        evidence=reason, kind=kind,
    )


def _oriented(raw: float, direction: str) -> float:
    """Signed deviation where positive always means "worse"."""
    if direction == "higher-is-worse":
        return raw
    if direction == "lower-is-worse":
        return -raw
    return abs(raw)


def detect(
    baseline: Sequence[float],
    candidate: float,
    spec: MetricSpec,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    kind: Optional[str] = None,
) -> Verdict:
    """Score ``candidate`` against a baseline window (see module doc).

    Raises:
        ValueError: for an empty baseline (callers use
            :func:`regress_series`, which emits a ``skipped`` verdict
            instead of calling this).
    """
    values = [float(v) for v in baseline]
    if not values:
        raise ValueError(f"{spec.name}: cannot detect against an empty baseline")
    median = statistics.median(values)
    mad = statistics.median(abs(v - median) for v in values)
    if len(values) >= thresholds.min_window and mad > 0:
        method = "mad-z"
        deviation = _oriented((candidate - median) / (MAD_SCALE * mad), spec.direction)
        warn_at, fail_at = thresholds.z_warn, thresholds.z_fail
        unit = "z"
    else:
        # Short window, or a bit-identical history (MAD 0): a z-score is
        # undefined or absurdly sensitive, so fall back to relative drift.
        method = "relative"
        scale = max(abs(median), 1e-12)
        deviation = _oriented((candidate - median) / scale, spec.direction)
        warn_at, fail_at = thresholds.rel_warn, thresholds.rel_fail
        unit = "rel"
    if deviation >= fail_at:
        status, threshold = "regressed", fail_at
    elif deviation >= warn_at:
        status, threshold = "warn", warn_at
    else:
        status, threshold = "ok", warn_at
    evidence = (
        f"candidate {candidate:.6g} vs baseline median {median:.6g} "
        f"(n={len(values)}, MAD {mad:.3g}): {unit}={deviation:+.2f} "
        f"[warn >= {warn_at:g}, fail >= {fail_at:g}, {spec.direction}]"
    )
    return Verdict(
        metric=spec.name, status=status, direction=spec.direction,
        method=method, candidate=float(candidate), baseline=tuple(values),
        baseline_median=median, deviation=deviation, threshold=threshold,
        evidence=evidence, kind=kind,
    )


def regress_series(
    values: Sequence[float],
    spec: MetricSpec,
    window: int = 5,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    kind: Optional[str] = None,
) -> Verdict:
    """Latest value vs the up-to-``window`` runs before it.

    Raises:
        ValueError: for a non-positive window.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    # One baseline point is not evidence (any sparse series would flag on
    # its second appearance); require two before issuing verdicts.
    if len(values) < 3:
        return _skipped(
            spec,
            f"needs >= 3 runs (2 baseline) to compare, series has {len(values)}",
            kind,
        )
    candidate = float(values[-1])
    baseline = [float(v) for v in values[-(window + 1):-1]]
    return detect(baseline, candidate, spec, thresholds, kind=kind)


#: Direction heuristics for store series the caller gave no spec for.
_LOWER_IS_WORSE_HINTS = (
    "speedup", "coverage", "completeness", "hit_rate", "profit", "welfare",
    "per_second",
)
_HIGHER_IS_WORSE_SUFFIXES = (
    "_ms_per_call", "_seconds", "_seconds_total", "_bytes", "/mean",
    "/p50", "/p95", "_fallbacks_total",
)
_HIGHER_IS_WORSE_HINTS = ("rejected", "rss", "gc_collections")


def default_spec(name: str) -> MetricSpec:
    """A direction guess for an unrecognised series name.

    Latency/size-shaped names regress upward, quality-shaped names
    regress downward, anything else is two-sided drift detection.
    """
    lowered = name.lower()
    if any(hint in lowered for hint in _LOWER_IS_WORSE_HINTS):
        return MetricSpec(name, "lower-is-worse")
    if lowered.endswith(_HIGHER_IS_WORSE_SUFFIXES) or any(
        hint in lowered for hint in _HIGHER_IS_WORSE_HINTS
    ):
        return MetricSpec(name, "higher-is-worse")
    return MetricSpec(name, "two-sided")


#: Curated specs for the perf-smoke bench trajectories.
BENCH_SPECS: Dict[str, MetricSpec] = {
    "reference_ms_per_call": MetricSpec("reference_ms_per_call", "higher-is-worse"),
    "vectorized_ms_per_call": MetricSpec("vectorized_ms_per_call", "higher-is-worse"),
    "speedup": MetricSpec("speedup", "lower-is-worse"),
    "mean_profit": MetricSpec("mean_profit", "two-sided"),
    "batched_rounds_per_second": MetricSpec(
        "batched_rounds_per_second", "lower-is-worse"
    ),
    "rounds_per_second": MetricSpec("rounds_per_second", "lower-is-worse"),
    "wall_seconds": MetricSpec("wall_seconds", "higher-is-worse"),
    "peak_rss_mb": MetricSpec("peak_rss_mb", "higher-is-worse"),
    "churn_rounds_per_second": MetricSpec(
        "churn_rounds_per_second", "lower-is-worse"
    ),
    "baseline_rounds_per_second": MetricSpec(
        "baseline_rounds_per_second", "lower-is-worse"
    ),
    # churn-on wall time over churn-off wall time: growing means the
    # dynamics path itself got slower relative to the closed world.
    "dynamics_overhead": MetricSpec("dynamics_overhead", "higher-is-worse"),
    "plain_rounds_per_second": MetricSpec(
        "plain_rounds_per_second", "lower-is-worse"
    ),
    "live_rounds_per_second": MetricSpec(
        "live_rounds_per_second", "lower-is-worse"
    ),
    # live-layer-on per-round wall time over bare: growing means the
    # tracing + progress plumbing itself got more expensive.
    "obs_overhead": MetricSpec("obs_overhead", "higher-is-worse"),
    "simulate_rounds_per_second": MetricSpec(
        "simulate_rounds_per_second", "lower-is-worse"
    ),
    "session_rounds_per_second": MetricSpec(
        "session_rounds_per_second", "lower-is-worse"
    ),
    # session-stepped per-round wall time over simulate(): growing means
    # the session shell (observe snapshots, cache bookkeeping) itself
    # got more expensive relative to the bare kernel loop.
    "session_overhead": MetricSpec("session_overhead", "higher-is-worse"),
}


@dataclass(frozen=True)
class RegressionReport:
    """Every verdict for one store sweep, worst first within each kind."""

    verdicts: Tuple[Verdict, ...] = field(default_factory=tuple)
    window: int = 5

    @property
    def regressed(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.status == "regressed"]

    @property
    def warned(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.status == "warn"]

    @property
    def status(self) -> str:
        """The worst status across all verdicts (``skipped`` when empty)."""
        if not self.verdicts:
            return "skipped"
        return max(self.verdicts, key=lambda v: v.severity).status

    def exit_code(self, warn_only: bool = False) -> int:
        """1 when any metric regressed (0 under ``warn_only``)."""
        return 1 if self.regressed and not warn_only else 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "window": self.window,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


def regress_store(
    store: RunStore,
    kind: Optional[str] = None,
    window: int = 5,
    specs: Optional[Mapping[str, MetricSpec]] = None,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    include_skipped: bool = False,
) -> RegressionReport:
    """Regression-check every numeric series in ``store``.

    Args:
        store: the run store to sweep.
        kind: restrict to one run kind (default: every kind, each
            checked against its own history).
        window: baseline window size.
        specs: per-metric direction overrides; unlisted metrics get
            :func:`default_spec` heuristics (:data:`BENCH_SPECS` covers
            the selector bench trajectory — it is merged in always,
            explicit ``specs`` winning).
        thresholds: detection knobs.
        include_skipped: also report series too short to compare.
    """
    merged_specs: Dict[str, MetricSpec] = dict(BENCH_SPECS)
    if specs:
        merged_specs.update(specs)
    verdicts: List[Verdict] = []
    for run_kind in ([kind] if kind is not None else store.kinds()):
        for name in store.value_names(kind=run_kind):
            spec = merged_specs.get(name, default_spec(name))
            values = [value for _run, value in store.series(name, kind=run_kind)]
            verdict = regress_series(
                values, spec, window=window, thresholds=thresholds, kind=run_kind
            )
            if verdict.status != "skipped" or include_skipped:
                verdicts.append(verdict)
    verdicts.sort(key=lambda v: (v.kind or "", -v.severity, v.metric))
    return RegressionReport(verdicts=tuple(verdicts), window=window)
