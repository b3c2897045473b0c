"""Worker supervision: one job driven to a terminal state, whatever dies.

The supervisor owns the *process* half of the lifecycle.  Each attempt
is one fresh worker process, but worker start-up (interpreter and
imports) is kept off the job's path: attempts are forked from one
long-lived :mod:`multiprocessing` **forkserver** that has already
imported :mod:`repro.server.worker`.  The forkserver starts with the
first attempt and then serves every later one; one that died is
replaced on the next fork request.  Each attempt is one
``Process(target=worker.attempt, args=(job_dir, attempt, deadline,
env))``: ``deadline`` is the unrounded remaining budget and ``env`` the
supervisor's extra knobs plus the attempt's logging mode and trace
context.  The child appends its output to ``job_dir/worker.log``.  The
``repro_attempt_seconds`` histogram runs from the fork request to exit.

From the fork on, the supervisor maps the worker's exit code back
onto :class:`~repro.server.jobs.JobState` transitions and decides
whether a dead worker means *retry* or *poison*:

- exit 0 — DONE (``result.json`` is read back onto the job);
- exit 3 / 4 — cooperative CANCELLED / TIMED_OUT;
- exit 2 — the job directory itself is bad: FAILED immediately, no
  retry (retrying a malformed input can only fail again);
- anything else (uncaught exception, SIGKILL, injected crash, a fork
  request the forkserver could not serve) — a *crash*: the job goes
  RUNNING → QUEUED and is relaunched after a capped decorrelated-jitter
  backoff
  (:func:`repro.resilience.retry.backoff_delays`), until
  ``max_attempts`` is spent — then the job is **poisoned**: FAILED with
  a diagnostic instead of retry-looping forever.

Timeouts are enforced twice, deliberately.  The worker carries a
cooperative deadline token (checked between rounds); the supervisor
*also* arms a wall-clock watchdog slightly past the deadline, trips the
job's cancel file with reason ``timeout``, grants a grace period, and
kills the process if it still won't die — so even a worker stuck inside
one round cannot hold a slot forever.  The budget spans *all* attempts
of a job (a crash-looping job does not get a fresh clock per retry).

The supervisor never touches the journal directly: every transition is
reported through the ``record`` callback so the owning service applies
its single-writer journaling discipline.  :meth:`WorkerSupervisor.shutdown`
kills every live worker and waits for it.  The forkserver exits by itself once
the service and every worker have (it waits on a pipe they all hold).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import random
import signal
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.obs.log import get_logger, logging_environment
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanTracer, TraceContext, trace_id_for_job
from repro.resilience.cancel import FileToken
from repro.resilience.retry import backoff_delays
from repro.server.jobs import (
    EXIT_BAD_JOB,
    EXIT_CANCELLED,
    EXIT_DONE,
    EXIT_TIMED_OUT,
    Job,
    JobState,
)

log = get_logger("server.supervisor")

#: Extra wall-clock slack the watchdog grants past the cooperative
#: deadline before tripping the cancel file itself.
WATCHDOG_SLACK_SECONDS = 2.0

#: Attempt-latency histogram bounds (seconds): jobs run seconds to
#: many minutes, not the sub-second TIME_BUCKETS defaults.
ATTEMPT_SECONDS_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0, 600.0, 1800.0,
)

#: The per-job trace shard directory name (under the job dir).
TRACE_DIR_NAME = "trace"


#: Forks attempts from one process that has imported the worker; numpy
#: loads ``ma`` and ``random`` on first use, so they are loaded there too
#: rather than inside each job's first round.
_FORKS = multiprocessing.get_context("forkserver")
_FORKS.set_forkserver_preload(["repro.server.worker", "numpy.ma", "numpy.random"])

#: The exit code of an attempt whose fork request failed, the code
#: :mod:`multiprocessing` also reports for a child whose forkserver died.
EXIT_FORK_FAILED = 255


class _Attempt(NamedTuple):
    """A forked worker and the future its exit code resolves."""

    proc: multiprocessing.process.BaseProcess
    exited: "asyncio.Future[int]"


def _exit_future(proc: multiprocessing.process.BaseProcess) -> "asyncio.Future[int]":
    """A future resolved with ``proc``'s exit code (negative: killed by
    that signal) once its sentinel reports the exit.

    The forkserver reports a child's exit code on the sentinel pipe, or
    closes it when the forkserver itself dies: the child may then still
    run, orphaned, so it is killed before its crash is reported, and a
    retry never runs next to it.
    """
    loop = asyncio.get_running_loop()
    exited: "asyncio.Future[int]" = loop.create_future()

    def on_exit() -> None:
        loop.remove_reader(proc.sentinel)
        code = proc.exitcode
        if code == EXIT_FORK_FAILED:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.close()
        exited.set_result(code)

    loop.add_reader(proc.sentinel, on_exit)
    return exited


class WorkerSupervisor:
    """Drives jobs to terminal states across worker process attempts.

    Args:
        max_attempts: worker launches before a crashing job is poisoned.
        backoff_base: first-retry delay in seconds.
        backoff_cap: upper bound on any retry delay.
        grace_seconds: how long a timed-out worker gets to exit
            cooperatively before SIGKILL.
        env: extra environment for every attempt (fault-injection knobs
            in drills).
        rng: injectable randomness for the jitter schedule (tests pin
            it; production uses a fresh :class:`random.Random`).
        clock: injectable monotonic clock.
        metrics: optional registry for attempt-latency histograms and
            crash-retry counters (the owning service shares its own).
    """

    def __init__(
        self,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 8.0,
        grace_seconds: float = 2.0,
        env: Optional[Dict[str, str]] = None,
        rng: Optional[random.Random] = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.grace_seconds = grace_seconds
        self.env = dict(env or {})
        self.rng = rng if rng is not None else random.Random()
        self.clock = clock
        self.metrics = metrics
        #: Live worker processes by job id, each with the future its
        #: exit resolves (for shutdown).
        self.processes: Dict[str, _Attempt] = {}

    # -- public API ------------------------------------------------------

    async def run_to_terminal(
        self,
        job: Job,
        job_dir: Path,
        record: Callable[[Job], None],
    ) -> None:
        """Run ``job`` until it reaches a terminal state.

        ``job`` must currently be QUEUED; ``record`` is called after
        every transition (the service's journaling hook).

        The whole drive — every attempt, every backoff — runs inside
        one ``supervise`` span; the trace context (deterministic trace
        id, shard directory) rides the attempt's env so the worker
        writes its shard into the same trace (``repro trace merge``
        stitches them).
        """
        deadline_at: Optional[float] = (
            self.clock() + job.timeout if job.timeout is not None else None
        )
        delays = self._delays()
        trace = TraceContext(
            trace_id=trace_id_for_job(job.job_id),
            trace_dir=str(job_dir / TRACE_DIR_NAME),
            parent_span_id="supervise",
            process="server",
        )
        tracer = SpanTracer(metadata={**trace.metadata(), "job_id": job.job_id})
        try:
            with tracer.span("supervise", cat="server", job=job.job_id):
                await self._drive(
                    job, job_dir, record, deadline_at, delays, trace, tracer
                )
        finally:
            try:
                tracer.write_jsonl(trace.shard_path("server"))
            except OSError:  # pragma: no cover - tracing is advisory
                log.warning(
                    "could not write server trace shard",
                    extra={"job": job.job_id},
                )

    async def _drive(
        self,
        job: Job,
        job_dir: Path,
        record: Callable[[Job], None],
        deadline_at: Optional[float],
        delays: List[float],
        trace: TraceContext,
        tracer: SpanTracer,
    ) -> None:
        while True:
            if self._cancel_requested(job_dir):
                job.error = self._cancel_reason(job_dir)
                job.transition(JobState.CANCELLED)
                record(job)
                return

            job.attempts += 1
            job.transition(JobState.RUNNING)
            record(job)

            remaining = None
            if deadline_at is not None:
                remaining = deadline_at - self.clock()
                if remaining <= 0:
                    job.error = f"wall-clock budget of {job.timeout}s exhausted"
                    job.transition(JobState.TIMED_OUT)
                    record(job)
                    return

            started = self.clock()
            with tracer.span(
                "attempt", cat="server", job=job.job_id, attempt=job.attempts
            ):
                returncode = await self._run_attempt(
                    job, job_dir, remaining, trace=trace
                )
            if self.metrics is not None:
                self.metrics.histogram(
                    "repro_attempt_seconds", bounds=ATTEMPT_SECONDS_BUCKETS
                ).observe(self.clock() - started)
            terminal = self._apply_exit(job, job_dir, returncode)
            if terminal:
                record(job)
                return

            # Crash: bounded retry with capped decorrelated jitter.
            if job.attempts >= self.max_attempts:
                job.error = (
                    f"poisoned: worker crashed {job.attempts} times "
                    f"(last exit code {returncode})"
                )
                job.transition(JobState.FAILED)
                record(job)
                log.warning(
                    "job poisoned",
                    extra={"job": job.job_id, "attempts": job.attempts},
                )
                return

            if self.metrics is not None:
                self.metrics.counter("repro_crash_retries_total").inc()
            job.transition(JobState.QUEUED)
            record(job)
            delay = delays[job.attempts - 1]
            log.info(
                "worker crashed; retrying",
                extra={
                    "job": job.job_id,
                    "exit_code": returncode,
                    "attempt": job.attempts,
                    "backoff_seconds": round(delay, 3),
                },
            )
            await asyncio.sleep(delay)

    async def shutdown(self) -> None:
        """Kill any still-live workers and wait for their exits (service
        shutdown path)."""
        running = list(self.processes.values())
        for proc, exited in running:
            if not exited.done():
                proc.kill()
        if running:
            await asyncio.wait([exited for _, exited in running])
        self.processes.clear()

    # -- internals -------------------------------------------------------

    def _delays(self) -> List[float]:
        if self.max_attempts == 1:
            return []
        return list(
            backoff_delays(
                self.max_attempts,
                base_delay=self.backoff_base,
                max_delay=self.backoff_cap,
                jitter="decorrelated",
                rng=self.rng,
            )
        )

    @staticmethod
    def _cancel_requested(job_dir: Path) -> bool:
        return (job_dir / "cancel").exists()

    @staticmethod
    def _cancel_reason(job_dir: Path) -> str:
        return FileToken(job_dir / "cancel").reason or "cancelled"

    async def _run_attempt(
        self,
        job: Job,
        job_dir: Path,
        remaining: Optional[float],
        trace: Optional[TraceContext] = None,
    ) -> int:
        """One worker attempt; returns its exit code (external timeout
        included: a watchdog-killed worker reports as timed out).

        The attempt's env carries the supervisor's extra knobs, the
        parent's logging mode (:func:`logging_environment`) and, when
        supervised under a trace, the job's :class:`TraceContext`.  A
        fork request the forkserver cannot serve (it was killed, say)
        is a crash like any other, so the job is retried.  The request
        runs on the event loop: a few ms, except that the first one
        waits for a new forkserver's imports (~0.5 s, once).
        """
        # Imported here, not with this module: ``python -m
        # repro.server.worker`` loads this package before it runs.
        from repro.server import worker

        env = {**self.env, **logging_environment()}
        if trace is not None:
            env.update(trace.child(f"worker-a{job.attempts}").to_env())
        proc = _FORKS.Process(
            target=worker.attempt,
            args=(job_dir, job.attempts, remaining, env),
            daemon=True,
        )
        try:
            proc.start()
        except (OSError, EOFError):
            log.warning(
                "could not fork a worker",
                extra={"job": job.job_id, "attempt": job.attempts},
                exc_info=True,
            )
            return EXIT_FORK_FAILED
        exited = _exit_future(proc)
        self.processes[job.job_id] = _Attempt(proc, exited)
        try:
            done, _ = await asyncio.wait(
                [exited],
                timeout=None if remaining is None
                else remaining + WATCHDOG_SLACK_SECONDS,
            )
            if done:
                return exited.result()
            return await self._enforce_timeout(job, job_dir, proc, exited)
        finally:
            # A worker still running here was cancelled with the service:
            # it stays listed so shutdown() kills it.
            if exited.done():
                self.processes.pop(job.job_id, None)

    async def _enforce_timeout(
        self,
        job: Job,
        job_dir: Path,
        proc: multiprocessing.process.BaseProcess,
        exited: "asyncio.Future[int]",
    ) -> int:
        """The watchdog path: cancel file → grace → SIGKILL."""
        log.warning(
            "worker exceeded deadline; tripping cancel file",
            extra={"job": job.job_id},
        )
        FileToken(job_dir / "cancel").trip("timeout")
        done, _ = await asyncio.wait([exited], timeout=self.grace_seconds)
        if done:
            return exited.result()
        log.warning("worker ignored cancel; killing", extra={"job": job.job_id})
        proc.kill()
        await asyncio.wait([exited])
        return EXIT_TIMED_OUT

    def _apply_exit(self, job: Job, job_dir: Path, returncode: int) -> bool:
        """Map an exit code onto the job; True when the job is terminal."""
        if returncode == EXIT_DONE:
            job.result = self._read_result(job_dir)
            job.transition(JobState.DONE)
            return True
        if returncode == EXIT_CANCELLED:
            job.error = self._cancel_reason(job_dir)
            job.transition(JobState.CANCELLED)
            return True
        if returncode == EXIT_TIMED_OUT:
            job.error = f"wall-clock budget of {job.timeout}s exhausted"
            job.transition(JobState.TIMED_OUT)
            return True
        if returncode == EXIT_BAD_JOB:
            job.error = (
                "worker rejected the job (see worker.log); "
                "not retrying a malformed or infeasible input"
            )
            job.transition(JobState.FAILED)
            return True
        return False  # crash — caller decides retry vs poison

    @staticmethod
    def _read_result(job_dir: Path) -> Optional[dict]:
        result_path = job_dir / "result.json"
        try:
            return json.loads(result_path.read_text())
        except (OSError, ValueError):  # pragma: no cover - defensive
            log.warning(
                "DONE worker left no readable result.json",
                extra={"job_dir": str(job_dir)},
            )
            return None

