"""The live operational layer: Prometheus exposition + job progress.

The observatory (PRs 3–4) answers *what happened*; this module answers
*what is happening*.  Three pieces, all deterministic and stdlib-only:

- :func:`render_prometheus` / :func:`parse_prometheus` — the registry's
  instruments as `Prometheus text exposition format
  <https://prometheus.io/docs/instrumenting/exposition_formats/>`_ and
  back.  Rendering is purely a function of the registry's state: no
  timestamps, sorted series, deterministic number formatting — two
  scrapes of an idle server are byte-identical (pinned by
  ``tests/server/test_live_ops.py``).
- :class:`JobProgress` / :class:`ProgressWriter` — the per-job progress
  file contract.  The worker's round observer atomically rewrites
  ``<job_dir>/progress.json`` after every round (current round, spend
  against budget, completeness, EWMA round time and the ETA derived
  from it), reading spend and completeness from the engine's ledger;
  the server reads it tolerantly at scrape time and turns it into
  per-job gauges.  The rewrite is not fsync'd and a torn or missing
  file reads as ``None`` — progress is advisory, never load-bearing.
- :func:`sparkline` / :func:`render_top_frame` — the terminal dashboard
  behind ``repro jobs top``: one line per job over the parsed
  ``/metrics`` gauges, with a sparkline of each job's completeness
  history.

Nothing here touches the simulation: a run with progress reporting
enabled is bit-identical to one without (the observer only *reads* the
round records and the engine's ledger).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.obs.metrics import Histogram, MetricsRegistry, _parse_series_key

#: The progress file's name inside a job directory.
PROGRESS_FILENAME = "progress.json"

#: EWMA weight on history (matches the service's runtime estimator).
EWMA_KEEP = 0.7

#: HELP strings for the series the service exposes (rendering skips
#: HELP for names not listed here — unknown series are still valid).
METRIC_HELP: Dict[str, str] = {
    "repro_queue_depth": "Jobs waiting in the bounded admission queue.",
    "repro_running_jobs": "Jobs currently holding a worker slot.",
    "repro_jobs": "Jobs in the journal by lifecycle state.",
    "repro_submissions_total": "Submission outcomes since process start.",
    "repro_shed_jobs_total": "Queued jobs shed under memory pressure.",
    "repro_crash_retries_total": "Worker crashes that triggered a retry.",
    "repro_attempt_seconds": "Wall-clock duration of worker attempts.",
    "repro_job_round": "Last completed round of a running job.",
    "repro_job_rounds_total": "Configured round count of a running job.",
    "repro_job_spend": "Cumulative payout of a running job.",
    "repro_job_budget": "Configured budget of a running job.",
    "repro_job_completeness": "Fraction of tasks completed by a running job.",
    "repro_job_eta_seconds": "EWMA-estimated seconds to finish a running job.",
}


def format_number(value: Union[int, float]) -> str:
    """A float rendered the same way every time (exposition-stable).

    Integral values print as integers (``3``, not ``3.0``); everything
    else prints via ``repr``, which round-trips exactly.
    """
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):  # pragma: no cover - no NaN series exist
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(v)}"' for k, v in labels.items()]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus text exposition (version 0.0.4).

    Series are grouped by metric name with one ``# TYPE`` (and, when
    known, ``# HELP``) line per name; histograms expand into cumulative
    ``_bucket{le=...}`` lines plus ``_sum`` and ``_count``.  No
    timestamps are emitted, so the output is a pure function of the
    registry's state.
    """
    grouped: Dict[str, List[tuple]] = {}
    for key, instrument in registry.series().items():
        name, label_key = _parse_series_key(key)
        grouped.setdefault(name, []).append((dict(label_key), instrument))

    lines: List[str] = []
    for name in sorted(grouped):
        entries = grouped[name]
        kind = entries[0][1].kind
        help_text = METRIC_HELP.get(name)
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, instrument in entries:
            if kind == "histogram":
                lines.extend(_render_histogram(name, labels, instrument))
            else:
                lines.append(
                    f"{name}{_render_labels(labels)} "
                    f"{format_number(instrument.value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def _render_histogram(
    name: str, labels: Mapping[str, str], histogram: Histogram
) -> List[str]:
    lines = []
    cumulative = 0
    for bound, count in zip(histogram.bounds, histogram.bucket_counts):
        cumulative += count
        le = _render_labels(labels, extra=f'le="{format_number(bound)}"')
        lines.append(f"{name}_bucket{le} {cumulative}")
    inf = _render_labels(labels, extra='le="+Inf"')
    lines.append(f"{name}_bucket{inf} {histogram.count}")
    lines.append(
        f"{name}_sum{_render_labels(labels)} {format_number(histogram.sum)}"
    )
    lines.append(f"{name}_count{_render_labels(labels)} {histogram.count}")
    return lines


def parse_prometheus(text: str) -> Dict[str, float]:
    """Exposition text back into ``{series-with-labels: value}``.

    The inverse ``repro jobs top`` needs: comments and blank lines are
    skipped, label strings are kept verbatim (quoted form), values
    parse as floats.  Malformed lines raise ``ValueError`` — a scrape
    either parses or the dashboard should say so.
    """
    values: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, raw = line.rpartition(" ")
        if not series:
            raise ValueError(f"malformed exposition line: {line!r}")
        values[series] = float(raw)
    return values


def metric_value(
    parsed: Mapping[str, float], name: str, **labels: Any
) -> Optional[float]:
    """Look one series up in :func:`parse_prometheus` output.

    Label order does not matter; returns None when absent.
    """
    wanted = {str(k): str(v) for k, v in labels.items()}
    prefix = name + "{"
    for series, value in parsed.items():
        if series == name and not wanted:
            return value
        if not series.startswith(prefix) or not series.endswith("}"):
            continue
        rendered = series[len(prefix):-1]
        found = {}
        for part in rendered.split(","):
            key, _, val = part.partition("=")
            found[key] = val.strip('"')
        if found == wanted:
            return value
    return None


# -- the per-job progress file ------------------------------------------


@dataclass(frozen=True)
class JobProgress:
    """One atomic snapshot of a running job's trajectory.

    Written by the worker after every completed round; read by the
    server at scrape time and by ``GET /jobs/{id}/progress``.
    """

    job_id: str
    round_no: int
    rounds_total: int
    spend: float
    budget: float
    completeness: float
    eta_seconds: float
    round_seconds_ewma: float
    attempt: int
    updated_at: float

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def write(self, job_dir: Union[str, Path]) -> Path:
        """Atomically (re)write ``<job_dir>/progress.json``.

        The rename is atomic but not fsync'd: the snapshot is advisory
        (:meth:`read` takes a missing or torn file as None), and the
        round's durable record is its events line.
        """
        from repro.io.atomic import atomic_write_text

        path = Path(job_dir) / PROGRESS_FILENAME
        atomic_write_text(
            path, json.dumps(self.as_dict(), sort_keys=True) + "\n",
            durable=False,
        )
        return path

    @classmethod
    def read(cls, job_dir: Union[str, Path]) -> Optional["JobProgress"]:
        """The job's progress snapshot, or None.

        Missing, torn, or wrong-shaped files all read as None: progress
        is advisory telemetry, and a scrape must never fail because a
        worker is mid-write on a filesystem without atomic rename.
        """
        path = Path(job_dir) / PROGRESS_FILENAME
        try:
            payload = json.loads(path.read_text())
            return cls(
                job_id=str(payload["job_id"]),
                round_no=int(payload["round_no"]),
                rounds_total=int(payload["rounds_total"]),
                spend=float(payload["spend"]),
                budget=float(payload["budget"]),
                completeness=float(payload["completeness"]),
                eta_seconds=float(payload["eta_seconds"]),
                round_seconds_ewma=float(payload["round_seconds_ewma"]),
                attempt=int(payload["attempt"]),
                updated_at=float(payload["updated_at"]),
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None


class ProgressWriter:
    """A round observer that keeps ``progress.json`` current.

    It keeps no ledger of its own: spend, completeness, the round count
    and the budget are read from the engine after each round (duck
    typed, so this package imports nothing from the simulation).  Spend
    is the run ledger's ``result.total_paid``; completeness is the
    completed share of ``world.tasks``, which holds every task the run
    knows, streamed arrivals included.  A resumed worker replays the
    earlier rounds deterministically, so both are cumulative across
    attempts.

    Args:
        job_dir: the job directory (the file lands next to events.jsonl).
        job_id: the job's id (embedded in every snapshot).
        engine: the running engine (``config``, ``result``, ``world``).
        attempt: the 1-based attempt number.
        clock: injectable wall clock (tests pin it).
    """

    def __init__(
        self,
        job_dir: Union[str, Path],
        job_id: str,
        engine,
        attempt: int = 1,
        clock=time.time,
    ):
        self.job_dir = Path(job_dir)
        self.job_id = job_id
        self.engine = engine
        self.attempt = int(attempt)
        self.clock = clock
        self._ewma: Optional[float] = None
        self._last_mark = perf_counter()
        self.last: Optional[JobProgress] = None

    def __call__(self, record) -> None:
        now = perf_counter()
        round_seconds = now - self._last_mark
        self._last_mark = now
        if self._ewma is None:
            self._ewma = round_seconds
        else:
            self._ewma = (
                EWMA_KEEP * self._ewma + (1.0 - EWMA_KEEP) * round_seconds
            )
        engine = self.engine
        rounds_total = int(engine.config.rounds)
        tasks = engine.world.tasks
        self.last = JobProgress(
            job_id=self.job_id,
            round_no=record.round_no,
            rounds_total=rounds_total,
            spend=engine.result.total_paid,
            budget=float(engine.config.budget),
            completeness=int(tasks.completed.sum()) / max(1, len(tasks)),
            eta_seconds=self._ewma * max(0, rounds_total - record.round_no),
            round_seconds_ewma=self._ewma,
            attempt=self.attempt,
            updated_at=self.clock(),
        )
        self.last.write(self.job_dir)


# -- the terminal dashboard ---------------------------------------------

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """``values`` as a fixed-width unicode sparkline (latest on the right).

    >>> sparkline([0.0, 0.5, 1.0], width=3)
    '▁▄█'
    """
    if not values:
        return " " * width
    tail = list(values)[-width:]
    low = min(tail)
    high = max(tail)
    span = high - low
    chars = []
    for value in tail:
        if span <= 0:
            chars.append(_SPARK_CHARS[0] if high <= 0 else _SPARK_CHARS[-1])
        else:
            index = int((value - low) / span * (len(_SPARK_CHARS) - 1))
            chars.append(_SPARK_CHARS[index])
    return "".join(chars).rjust(width)


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, rest = divmod(int(round(seconds)), 60)
    return f"{minutes}m{rest:02d}s"


def render_top_frame(
    parsed: Mapping[str, float],
    jobs: Iterable[Mapping[str, Any]],
    history: Mapping[str, Sequence[float]],
    width: int = 24,
) -> str:
    """One ``repro jobs top`` frame over parsed ``/metrics`` + job list.

    Args:
        parsed: :func:`parse_prometheus` output of one scrape.
        jobs: the job documents from ``GET /jobs``.
        history: per-job completeness history (the caller accumulates
            it across frames; the newest sample is drawn rightmost).
    """
    jobs = list(jobs)
    by_state: Dict[str, int] = {}
    for job in jobs:
        by_state[job["state"]] = by_state.get(job["state"], 0) + 1
    queued = metric_value(parsed, "repro_queue_depth")
    running = metric_value(parsed, "repro_running_jobs")
    states = " ".join(f"{s}={by_state[s]}" for s in sorted(by_state)) or "none"
    lines = [
        f"queue={format_number(queued or 0)} "
        f"running={format_number(running or 0)} jobs: {states}",
        f"{'job':<10} {'state':<9} {'round':>11} {'spend':>16} "
        f"{'done%':>6} {'eta':>7}  progress",
    ]
    for job in jobs:
        job_id = job["job_id"]
        round_no = metric_value(parsed, "repro_job_round", job=job_id)
        rounds_total = metric_value(
            parsed, "repro_job_rounds_total", job=job_id
        )
        spend = metric_value(parsed, "repro_job_spend", job=job_id)
        budget = metric_value(parsed, "repro_job_budget", job=job_id)
        completeness = metric_value(
            parsed, "repro_job_completeness", job=job_id
        )
        eta = metric_value(parsed, "repro_job_eta_seconds", job=job_id)
        if round_no is None:
            rounds = "-"
            spend_col = "-"
            done = "-"
        else:
            rounds = (
                f"{format_number(round_no)}/{format_number(rounds_total or 0)}"
            )
            spend_col = f"{spend or 0.0:.0f}/{budget or 0.0:.0f}"
            done = f"{100.0 * (completeness or 0.0):.1f}"
        lines.append(
            f"{job_id:<10} {job['state']:<9} {rounds:>11} {spend_col:>16} "
            f"{done:>6} {_fmt_eta(eta) if round_no is not None else '-':>7}  "
            f"{sparkline(history.get(job_id, ()), width=width)}"
        )
    return "\n".join(lines)


def progress_gauges(
    registry: MetricsRegistry, progress: JobProgress
) -> None:
    """Set one running job's progress gauges on ``registry``."""
    job = progress.job_id
    registry.gauge("repro_job_round", job=job).set(progress.round_no)
    registry.gauge("repro_job_rounds_total", job=job).set(
        progress.rounds_total
    )
    registry.gauge("repro_job_spend", job=job).set(progress.spend)
    registry.gauge("repro_job_budget", job=job).set(progress.budget)
    registry.gauge("repro_job_completeness", job=job).set(
        progress.completeness
    )
    registry.gauge("repro_job_eta_seconds", job=job).set(
        progress.eta_seconds
    )


__all__ = [
    "JobProgress",
    "METRIC_HELP",
    "PROGRESS_FILENAME",
    "ProgressWriter",
    "format_number",
    "metric_value",
    "parse_prometheus",
    "progress_gauges",
    "render_prometheus",
    "render_top_frame",
    "sparkline",
]
