"""The job lifecycle: a typed state machine, journaled crash-safely.

Every submission becomes a :class:`Job` that moves through::

    QUEUED ──────────────► RUNNING ──► DONE
       │                   │  │  ▲
       │                   │  │  └── (crash retry: RUNNING → QUEUED)
       ├──► CANCELLED ◄────┘  ├──► FAILED
       │    (client cancel,   └──► TIMED_OUT
       │     load shedding)

    DONE / FAILED / CANCELLED / TIMED_OUT are terminal: no exits.

Transitions are validated (:data:`VALID_TRANSITIONS`); an illegal one
raises :class:`JobStateError` instead of silently corrupting the
service's view of a job.  ``RUNNING → QUEUED`` is the crash-retry edge:
when a worker process dies the supervisor re-queues the job (bounded by
the poison cap) rather than losing it.

Every submission and every transition is appended to a
:class:`JobJournal`, a JSONL log under the crash rule of
:mod:`repro.io.atomic` (a line counts once its newline is on disk; a
torn tail is removed on load), so a SIGKILLed server rebuilds its exact
job table on restart and resumes in-flight work.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.io.atomic import append_line, reopen_jsonl
from repro.obs.log import get_logger
from repro.resilience.errors import ReproError, ResultCorruption

log = get_logger("server.jobs")

FORMAT_VERSION = 1


class JobStateError(ReproError, ValueError):
    """An illegal job state transition (names both states and the job)."""


class JobState(str, Enum):
    """Where a job is in its lifecycle (see the module diagram)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMED_OUT = "timed_out"


#: States a job never leaves.
TERMINAL_STATES = frozenset(
    (JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.TIMED_OUT)
)

#: The legal edges of the lifecycle graph.
VALID_TRANSITIONS: Dict[JobState, frozenset] = {
    JobState.QUEUED: frozenset((JobState.RUNNING, JobState.CANCELLED)),
    JobState.RUNNING: frozenset(
        (
            JobState.QUEUED,  # crash retry (worker died; bounded re-queue)
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.TIMED_OUT,
        )
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
    JobState.TIMED_OUT: frozenset(),
}

#: Worker exit codes: the process half of the lifecycle.  The worker
#: exits with one of them and the supervisor maps it back onto a state;
#: any other code is a crash (retried, then poisoned).
EXIT_DONE = 0
EXIT_BAD_JOB = 2  # invalid job dir / unparseable job.json: FAILED, no retry
EXIT_CANCELLED = 3
EXIT_TIMED_OUT = 4
EXIT_INJECTED_CRASH = 13  # fault drills (a crash like any other)


def _utc_now() -> float:
    return time.time()


@dataclass
class Job:
    """One accepted submission and its current lifecycle position.

    Args:
        job_id: the service-assigned stable id (``job-<seq>``).
        fingerprint: the submission's config fingerprint (dedup key).
        payload: the validated submission body (scenario/spec +
            overrides), sufficient to rebuild the worker's config.
        priority: higher runs first; ties run in submission order.
            Priority is also the *shedding* order — under memory
            pressure the lowest-priority queued job goes first.
        timeout: per-job wall-clock budget in seconds (None = no limit).
        state: current :class:`JobState`.
        attempts: worker launches so far (crash retries increment it).
        error: terminal diagnostic (FAILED/TIMED_OUT/CANCELLED reason).
        result: the worker's summary payload once DONE.
    """

    job_id: str
    fingerprint: str
    payload: Dict[str, Any]
    priority: int = 0
    timeout: Optional[float] = None
    state: JobState = JobState.QUEUED
    attempts: int = 0
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    created_at: float = field(default_factory=_utc_now)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, to: JobState) -> None:
        """Move to ``to``, enforcing the lifecycle graph.

        Raises:
            JobStateError: when the edge is not in
                :data:`VALID_TRANSITIONS`.
        """
        if to not in VALID_TRANSITIONS[self.state]:
            raise JobStateError(
                f"job {self.job_id}: illegal transition "
                f"{self.state.value} -> {to.value} (legal: "
                f"{sorted(s.value for s in VALID_TRANSITIONS[self.state])})"
            )
        self.state = to
        now = _utc_now()
        if to is JobState.RUNNING and self.started_at is None:
            self.started_at = now
        if to in TERMINAL_STATES:
            self.finished_at = now

    def as_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "payload": self.payload,
            "priority": self.priority,
            "timeout": self.timeout,
            "state": self.state.value,
            "attempts": self.attempts,
            "error": self.error,
            "result": self.result,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Job":
        data = dict(payload)
        data["state"] = JobState(data["state"])
        return cls(**data)

    def public_view(self) -> Dict[str, Any]:
        """The status document the HTTP API serves for this job."""
        view = self.as_dict()
        view["terminal"] = self.terminal
        if self.started_at is not None:
            end = self.finished_at if self.finished_at is not None else _utc_now()
            view["runtime_seconds"] = round(end - self.started_at, 3)
        return view


class JobJournal:
    """Crash-safe JSONL journal of every job event (see module doc).

    Line kinds: one ``meta`` header, then interleaved ``submitted``
    (full job record) and ``state`` (job_id + new state + bookkeeping)
    lines.  Loading replays them into the latest job table; recovery
    semantics (what to do with non-terminal jobs) belong to the service,
    not the journal.

    Args:
        path: the journal file; created (with parents) when absent.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.jobs: Dict[str, Job] = {}
        self._submissions = 0
        if self.path.exists():
            self._resume()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as handle:
                append_line(handle, json.dumps(
                    {"kind": "meta", "format_version": FORMAT_VERSION},
                    sort_keys=True,
                ))

    # -- writing ---------------------------------------------------------

    def next_job_id(self) -> str:
        """The id the next :meth:`record_submitted` job should carry."""
        return f"job-{self._submissions + 1:06d}"

    def record_submitted(self, job: Job) -> None:
        """Journal a brand-new job (its full record)."""
        with self.path.open("a") as handle:
            append_line(handle, json.dumps(
                {"kind": "submitted", "job": job.as_dict()}, sort_keys=True
            ))
        self.jobs[job.job_id] = job
        self._submissions += 1

    def record_state(self, job: Job) -> None:
        """Journal a transition (the job has already moved)."""
        with self.path.open("a") as handle:
            append_line(handle, json.dumps(
                {
                    "kind": "state",
                    "job_id": job.job_id,
                    "state": job.state.value,
                    "attempts": job.attempts,
                    "error": job.error,
                    "result": job.result,
                    "started_at": job.started_at,
                    "finished_at": job.finished_at,
                },
                sort_keys=True,
            ))
        self.jobs[job.job_id] = job

    # -- loading ---------------------------------------------------------

    def _resume(self) -> None:
        parsed = [
            entry
            for _, entry in reopen_jsonl(
                self.path, "job-journal", ResultCorruption
            )
        ]
        if not parsed:
            raise ResultCorruption(
                f"{self.path}: job journal has no readable lines; delete it "
                f"and restart"
            )
        meta = parsed[0]
        if meta.get("kind") != "meta" or meta.get("format_version") != FORMAT_VERSION:
            raise ResultCorruption(
                f"{self.path}: not a version-{FORMAT_VERSION} job journal "
                f"(header {meta!r})"
            )
        for entry in parsed[1:]:
            kind = entry.get("kind")
            if kind == "submitted":
                job = Job.from_dict(entry["job"])
                self.jobs[job.job_id] = job
                self._submissions += 1
            elif kind == "state":
                job = self.jobs.get(entry["job_id"])
                if job is None:
                    raise ResultCorruption(
                        f"{self.path}: state line for unknown job "
                        f"{entry['job_id']!r}"
                    )
                job.state = JobState(entry["state"])
                job.attempts = int(entry.get("attempts", job.attempts))
                job.error = entry.get("error")
                job.result = entry.get("result")
                job.started_at = entry.get("started_at")
                job.finished_at = entry.get("finished_at")
            else:
                raise ResultCorruption(
                    f"{self.path}: unexpected job-journal entry kind {kind!r}"
                )
        log.info(
            "job journal loaded",
            extra={"journal": str(self.path), "jobs": len(self.jobs)},
        )

    # -- queries ---------------------------------------------------------

    def non_terminal(self) -> List[Job]:
        """Jobs the last process left QUEUED or RUNNING (recovery input),
        in submission order."""
        return [
            job
            for job in sorted(self.jobs.values(), key=lambda j: j.job_id)
            if not job.terminal
        ]

    def by_fingerprint(self, fingerprint: str) -> Optional[Job]:
        """The most recent job with this fingerprint that is still
        deliverable (queued, running, or done) — the dedup probe.

        Jobs that failed, timed out, or were cancelled do not block a
        resubmission of the same configuration.
        """
        candidates = [
            job
            for job in self.jobs.values()
            if job.fingerprint == fingerprint
            and job.state in (JobState.QUEUED, JobState.RUNNING, JobState.DONE)
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda j: j.job_id)

    def __len__(self) -> int:
        return len(self.jobs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobJournal({str(self.path)!r}, jobs={len(self.jobs)})"
