"""Worker supervision: one job driven to a terminal state, whatever dies.

The supervisor owns the *process* half of the lifecycle.  Each attempt
is one fresh worker process, but worker start-up (interpreter and
imports) is kept off the job's path: the supervisor always holds one
**standby** — ``python -m repro.server.worker`` started with no job dir,
its imports done, blocked reading stdin.  An attempt takes the standby
(or starts one on the spot when none is alive), writes it one JSON
handoff line — ``job_dir``, ``attempt``, the unrounded remaining
``deadline`` and the attempt's logging/trace env — closes the pipe, and
starts the replacement standby at once.  Before its handoff a standby's
output goes to the service's stderr (an import failure shows there);
after it, the worker appends fds 1/2 to ``job_dir/worker.log``.  The
``repro_attempt_seconds`` histogram therefore runs from handoff to exit.

From the handoff on, the supervisor maps the worker's exit code back
onto :class:`~repro.server.jobs.JobState` transitions and decides
whether a dead worker means *retry* or *poison*:

- exit 0 — DONE (``result.json`` is read back onto the job);
- exit 3 / 4 — cooperative CANCELLED / TIMED_OUT;
- exit 2 — the job directory itself is bad: FAILED immediately, no
  retry (retrying a malformed input can only fail again);
- anything else (uncaught exception, SIGKILL, injected crash, a
  standby that died before its handoff) — a *crash*: the job goes
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
kills and reaps every live worker, the standby included.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import sys
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


class _Standby(NamedTuple):
    """A started worker waiting on stdin, and that pipe's write end."""

    proc: asyncio.subprocess.Process
    handoff_fd: int


def worker_environment(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The subprocess environment for a worker.

    Ensures the worker can ``import repro`` even when the service was
    started from an installed checkout with no PYTHONPATH: the package
    root is derived from ``repro.__file__`` and prepended.
    """
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    parts = [src_root] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    if extra:
        env.update(extra)
    return env


class WorkerSupervisor:
    """Drives jobs to terminal states across worker process attempts.

    Args:
        max_attempts: worker launches before a crashing job is poisoned.
        backoff_base: first-retry delay in seconds.
        backoff_cap: upper bound on any retry delay.
        grace_seconds: how long a timed-out worker gets to exit
            cooperatively before SIGKILL.
        env: extra environment for workers (fault-injection knobs in
            drills); merged over :func:`worker_environment`.
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
        self.env = worker_environment(env)
        self.rng = rng if rng is not None else random.Random()
        self.clock = clock
        self.metrics = metrics
        #: Live worker processes by job id (for shutdown).
        self.processes: Dict[str, asyncio.subprocess.Process] = {}
        #: The worker waiting for the next attempt's handoff.
        self._standby: Optional[_Standby] = None
        #: Serialises taking and refilling the standby slot, so two
        #: concurrent attempts never start a standby nobody keeps.
        self._standby_lock = asyncio.Lock()

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
        id, shard directory) rides the handoff line so the worker
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
        """Kill any still-live workers, the standby included (service
        shutdown path)."""
        procs = list(self.processes.values())
        standby, self._standby = self._standby, None
        if standby is not None:
            os.close(standby.handoff_fd)
            procs.append(standby.proc)
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
        for proc in procs:
            try:
                await proc.wait()
            except ProcessLookupError:  # pragma: no cover - already gone
                pass
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

        The handoff carries the parent's logging mode
        (:func:`logging_environment`) and, when supervised under a
        trace, the job's :class:`TraceContext` — both applied by the
        worker before it starts the job.  A standby that died between
        :meth:`_take_standby` and the write leaves a broken pipe; the
        attempt then waits on the dead process like any crashed worker.
        """
        env = logging_environment()
        if trace is not None:
            env.update(trace.child(f"worker-a{job.attempts}").to_env())
        handoff = {
            "job_dir": str(job_dir),
            "attempt": job.attempts,
            "deadline": remaining,
            "env": env,
        }
        proc, handoff_fd = await self._take_standby(job)
        self.processes[job.job_id] = proc
        try:
            try:
                os.write(handoff_fd, (json.dumps(handoff) + "\n").encode())
            except BrokenPipeError:
                log.warning(
                    "standby worker died before its handoff",
                    extra={"job": job.job_id, "attempt": job.attempts},
                )
            finally:
                os.close(handoff_fd)
            await self._refill_standby()
            if remaining is None:
                return await proc.wait()
            try:
                return await asyncio.wait_for(
                    proc.wait(), timeout=remaining + WATCHDOG_SLACK_SECONDS
                )
            except asyncio.TimeoutError:
                return await self._enforce_timeout(job, job_dir, proc)
        finally:
            # A worker still running here was cancelled with the service:
            # it stays listed so shutdown() kills it.
            if proc.returncode is not None:
                self.processes.pop(job.job_id, None)

    async def _take_standby(self, job: Job) -> _Standby:
        """Empty the standby slot; start a worker now if it held none
        alive."""
        async with self._standby_lock:
            standby, self._standby = self._standby, None
            if standby is not None and standby.proc.returncode is not None:
                log.warning(
                    "standby worker had exited; starting another",
                    extra={"job": job.job_id,
                           "exit_code": standby.proc.returncode},
                )
                os.close(standby.handoff_fd)
                standby = None
            if standby is None:
                standby = await self._spawn_standby()
            return standby

    async def _refill_standby(self) -> None:
        """Start the next standby; on failure the next attempt starts
        its own, so the running one is not failed over it."""
        async with self._standby_lock:
            if self._standby is None:
                try:
                    self._standby = await self._spawn_standby()
                except OSError:
                    log.warning("could not start a standby worker", exc_info=True)

    async def _spawn_standby(self) -> _Standby:
        """Start ``python -m repro.server.worker`` waiting on a pipe.

        Its output goes to the service's stderr until the handoff.  The
        pipe's write end stays in this process only (``os.pipe`` fds
        are not inherited), so the standby reads EOF once it is closed
        or this process dies.
        """
        read_fd, write_fd = os.pipe()
        try:
            proc = await asyncio.create_subprocess_exec(
                sys.executable,
                "-m",
                "repro.server.worker",
                stdin=read_fd,
                stdout=2,  # the service's stderr, until the handoff
                env=self.env,
            )
        except BaseException:
            os.close(write_fd)
            raise
        finally:
            os.close(read_fd)
        return _Standby(proc, write_fd)

    async def _enforce_timeout(
        self, job: Job, job_dir: Path, proc: asyncio.subprocess.Process
    ) -> int:
        """The watchdog path: cancel file → grace → SIGKILL."""
        log.warning(
            "worker exceeded deadline; tripping cancel file",
            extra={"job": job.job_id},
        )
        FileToken(job_dir / "cancel").trip("timeout")
        try:
            return await asyncio.wait_for(proc.wait(), timeout=self.grace_seconds)
        except asyncio.TimeoutError:
            log.warning(
                "worker ignored cancel; killing", extra={"job": job.job_id}
            )
            proc.kill()
            await proc.wait()
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
