"""The worker process: one job, run to a terminal state, resumably.

Every supervisor attempt is one fresh worker process, forked from the
supervisor's forkserver, which has already imported this module (and
with it everything :func:`run_job` needs).  The forked child runs
:func:`attempt`: it points fds 1/2 at ``job_dir/worker.log`` (append),
applies the attempt's environment (logging mode, trace context and the
supervisor's extra knobs), logs "worker starting" and calls
:func:`run_job`.  Anything the child writes before that (an unpickling
error, say) goes to the service's stderr.  The child ends through
``os._exit``, so no attempt pays an interpreter start or teardown.

``python -m repro.server.worker <job_dir> [--attempt N] [--deadline S]``
runs one job directly, by hand or in tests, through the same
:func:`run_job`.

The job directory is the whole contract:

- ``job.json`` (in) — the job id, the validated submission payload, and
  the obs-store path;
- ``events.jsonl`` (out) — the streamed round history, events-JSONL
  format, one durable line per round under the crash rule of
  :mod:`repro.io.atomic`;
- ``cancel`` (in, optional) — the supervisor's kill switch, polled by
  the engine through a :class:`~repro.resilience.cancel.FileToken`;
- ``result.json`` (out, on success) — the metrics summary, written
  atomically.

**Crash recovery is append-only replay.**  On start the worker loads
any existing ``events.jsonl``, removes a torn tail (the bytes after the
last newline: a SIGKILL mid-append), and counts the completed rounds.
The engine then re-runs the *same* seeded simulation — bit-identical by
construction — while the :class:`ResumingRoundWriter` suppresses rounds
already on disk and appends only the new ones.  The result: a killed
and restarted job produces an events file with exactly one record per
round — no duplicates, no losses — identical to an uninterrupted run up
to wall-clock timing telemetry (``selector_wall_time`` and the
``selector_seconds`` histogram, which no replay can reproduce).

Exit codes (defined in :mod:`repro.server.jobs`) are the worker half of
the lifecycle state machine:

====  =========================================================
0     DONE (result.json written, obs store ingested)
3     CANCELLED (cooperative, via the cancel file)
4     TIMED_OUT (cooperative, via the wall-clock deadline token, or a
      deadline already spent at start)
2     invalid job dir / unparseable job.json, or a config the run
      finds infeasible (a ``ConfigError``; poison — do not retry)
13    injected crash (fault drills; see REPRO_SERVER_FAULT_CRASH_P)
else  crash (uncaught exception, killed, …) — supervisor retries
====  =========================================================

Fault injection (chaos drills): ``REPRO_SERVER_FAULT_CRASH_P`` sets a
per-round crash probability; the draw stream is seeded from
``REPRO_SERVER_FAULT_SEED`` x job id x attempt, so a drill is exactly
reproducible yet each retry crashes (or survives) at a different round.
The crash fires *after* the round is persisted — the worst case for
duplicate detection, which is exactly what the recovery tests want.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.io.atomic import append_line, atomic_write_text, reopen_jsonl
from repro.io.events import _meta_payload, _round_payload, check_event_lines
from repro.metrics import MetricsSummary
from repro.obs.live import ProgressWriter
from repro.obs.log import configure_logging_from_env, get_logger
from repro.obs.store import RunStore, registry_values
from repro.obs.trace import SpanTracer, TraceContext
from repro.resilience.cancel import (
    CompositeToken,
    DeadlineToken,
    FileToken,
)
from repro.resilience.errors import (
    ConfigError,
    OperationCancelled,
    ResultCorruption,
)
from repro.server.jobs import (
    EXIT_BAD_JOB,
    EXIT_CANCELLED,
    EXIT_DONE,
    EXIT_INJECTED_CRASH,
    EXIT_TIMED_OUT,
)
from repro.server.validate import InvalidSubmission, parse_submission
from repro.simulation import make_engine

log = get_logger("server.worker")

CRASH_P_ENV = "REPRO_SERVER_FAULT_CRASH_P"
CRASH_SEED_ENV = "REPRO_SERVER_FAULT_SEED"


class ResumingRoundWriter:
    """An events-JSONL writer that survives (and resumes after) SIGKILL.

    Differences from :class:`repro.io.events.RoundStreamWriter`:

    - every line is a durable :func:`~repro.io.atomic.append_line`, so a
      completed round is on disk the moment the observer returns;
    - on an existing file it removes a torn tail
      (:func:`~repro.io.atomic.reopen_jsonl`), checks the lines with
      :func:`~repro.io.events.check_event_lines`, counts the completed
      rounds, and *skips* re-writing them when the deterministic engine
      replays — append-only resume;
    - a damaged complete line, a foreign meta line or a broken round
      sequence raises :class:`~repro.resilience.errors.ResultCorruption`
      (the file is damaged, not merely crashed).

    Args:
        path: the events file.
        world: the (regenerated, identical) world for the meta line.
    """

    def __init__(self, path: Union[str, Path], world) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payloads = (
            reopen_jsonl(self.path, "events", ResultCorruption)
            if self.path.exists()
            else []
        )
        self.completed_rounds = (
            check_event_lines(self.path, payloads) if payloads else 0
        )
        self.rounds_written = 0
        self._handle = self.path.open("a")
        if not payloads:
            append_line(self._handle, json.dumps(_meta_payload(world, 0)))

    def __call__(self, record) -> None:
        if record.round_no <= self.completed_rounds:
            return  # replayed round, already durable — append-only resume
        append_line(self._handle, json.dumps(_round_payload(record)))
        self.rounds_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResumingRoundWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _CrashInjector:
    """A round observer that kills the process with probability p.

    Deterministic per (seed, job_id, attempt); fires *after* the round
    writer persisted the round (observer registration order).
    """

    def __init__(self, probability: float, seed: int, job_id: str, attempt: int):
        self.probability = probability
        self._rng = random.Random(f"{seed}:{job_id}:{attempt}")

    def __call__(self, record) -> None:
        if self._rng.random() < self.probability:
            log.warning(
                "injected worker crash",
                extra={"round": record.round_no, "p": self.probability},
            )
            os._exit(EXIT_INJECTED_CRASH)


def _maybe_crash_injector(job_id: str, attempt: int):
    raw = os.environ.get(CRASH_P_ENV)
    if not raw:
        return None
    probability = float(raw)
    if probability <= 0:
        return None
    seed = int(os.environ.get(CRASH_SEED_ENV, "0"))
    return _CrashInjector(probability, seed, job_id, attempt)


def run_job(job_dir: Path, attempt: int, deadline: Optional[float]) -> int:
    """Execute the job in ``job_dir``; returns the process exit code.

    ``deadline`` is the remaining wall-clock budget in seconds; one
    already spent (<= 0) ends the job TIMED_OUT without running it.
    """
    job_path = job_dir / "job.json"
    try:
        job_doc = json.loads(job_path.read_text())
        parsed = parse_submission(job_doc["payload"])
    except (OSError, ValueError, KeyError, InvalidSubmission) as exc:
        sys.stderr.write(f"worker: bad job dir {job_dir}: {exc}\n")
        return EXIT_BAD_JOB
    job_id = job_doc.get("job_id", job_dir.name)

    # Streamed rounds bound worker memory; the events file *is* the
    # retained history.
    config = parsed.config.with_overrides(stream_rounds=True)

    tokens = [FileToken(job_dir / "cancel")]
    if deadline is not None:
        if deadline <= 0:
            log.info("worker started past its deadline", extra={"job": job_id})
            return EXIT_TIMED_OUT
        tokens.append(DeadlineToken(deadline))
    cancel = CompositeToken(tokens)

    # The supervisor hands down a trace context (trace id + shard dir)
    # via the environment; inside it the worker records its engine spans
    # and leaves a shard next to the server's supervise span.
    trace_ctx = TraceContext.from_env(os.environ)
    tracer = None
    engine_kwargs = {"cancel": cancel}
    if trace_ctx is not None:
        tracer = SpanTracer(
            metadata={**trace_ctx.metadata(), "job_id": job_id,
                      "attempt": attempt}
        )
        engine_kwargs["tracer"] = tracer

    try:
        engine = make_engine(config, **engine_kwargs)
        with ResumingRoundWriter(job_dir / "events.jsonl", engine.world) as writer:
            engine.observers.append(writer)
            # Progress after the events append: a snapshot never gets
            # ahead of the durable round history.
            engine.observers.append(ProgressWriter(
                job_dir,
                job_id,
                rounds_total=config.rounds,
                budget=config.budget,
                n_tasks=len(engine.world.tasks),
                attempt=attempt,
            ))
            injector = _maybe_crash_injector(job_id, attempt)
            if injector is not None:
                engine.observers.append(injector)
            result = engine.run()
    except OperationCancelled as exc:
        log.info(
            "worker cancelled cooperatively",
            extra={"job": job_id, "reason": exc.reason},
        )
        return EXIT_TIMED_OUT if exc.reason == "timeout" else EXIT_CANCELLED
    except ConfigError as exc:
        # An infeasible config (e.g. an Eq. 9 budget too small for the
        # run's tasks), found building or running the engine, fails the
        # same way on every attempt: poison.
        sys.stderr.write(f"worker: infeasible job {job_id}: {exc}\n")
        return EXIT_BAD_JOB
    finally:
        if tracer is not None and trace_ctx is not None:
            try:
                tracer.write_jsonl(trace_ctx.shard_path())
            except OSError:  # pragma: no cover - tracing is advisory
                log.warning("could not write worker trace shard",
                            extra={"job": job_id})

    summary = MetricsSummary.from_result(result)
    _write_result(job_dir, job_id, parsed, summary, result)
    _ingest_obs(job_doc.get("obs_store"), job_id, parsed, summary, result)
    return EXIT_DONE


def _write_result(job_dir: Path, job_id: str, parsed, summary, result) -> None:
    atomic_write_text(
        job_dir / "result.json",
        json.dumps(
            {
                "status": "done",
                "job_id": job_id,
                "fingerprint": parsed.fingerprint,
                "rounds_played": result.rounds_played,
                "summary": summary.as_dict(),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )


def _ingest_obs(obs_store, job_id: str, parsed, summary, result) -> None:
    """Record the finished job in the service's run store (when any).

    The store's inter-process lock (flock or the portable lockfile) is
    what makes concurrent workers safe here; ``dedupe_key=job_id`` makes
    a replayed ingest idempotent.
    """
    if not obs_store:
        return
    values = registry_values(result.metrics_totals().as_dict())
    for name, value in summary.as_dict().items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            values[f"summary/{name}"] = float(value)
    config = parsed.config
    RunStore(obs_store).ingest(
        "server-job",
        values,
        labels={
            "job_id": job_id,
            "fingerprint": parsed.fingerprint,
            "mechanism": config.mechanism,
            "selector": config.selector,
            "seed": str(config.seed),
            **(
                {"scenario": parsed.payload["scenario"]}
                if parsed.payload.get("scenario")
                else {}
            ),
        },
        dedupe_key=job_id,
    )


def _start(job_dir: Path, attempt: int, deadline: Optional[float]) -> int:
    """One attempt: the server's logging mode (format + level) from the
    environment the supervisor handed down, a start line, then the job."""
    configure_logging_from_env()
    log.info(
        "worker starting",
        extra={"job_dir": str(job_dir), "attempt": attempt},
    )
    return run_job(job_dir, attempt, deadline)


def attempt(job_dir: Path, attempt: int, deadline: Optional[float],
            env: Dict[str, str]) -> None:
    """A supervisor attempt, in the child forked for it: output to
    ``job_dir/worker.log`` (append), ``env`` applied, then the job;
    exits with the job's code."""
    sys.stdout.flush()
    sys.stderr.flush()
    log_fd = os.open(
        job_dir / "worker.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
    )
    os.dup2(log_fd, 1)
    os.dup2(log_fd, 2)
    os.close(log_fd)
    os.environ.update(env)
    sys.exit(_start(job_dir, attempt, deadline))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-server-worker",
        description="Run one job directory to a terminal state (internal).",
    )
    parser.add_argument("job_dir", help="the job directory (job.json inside)")
    parser.add_argument("--attempt", type=int, default=1,
                        help="1-based attempt number (for fault seeding)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="remaining wall-clock budget in seconds")
    args = parser.parse_args(argv)
    return _start(Path(args.job_dir), args.attempt, args.deadline)


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
