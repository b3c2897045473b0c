"""Simulation-as-a-service: a supervised, crash-recoverable job service.

The :mod:`repro.server` package turns the batch simulator into an
always-on service — the operating mode the paper's platform actually
implies (an MCS platform runs continuously, accepting sensing campaigns
as they arrive, not as one-shot scripts).  Its pillars:

- :mod:`~repro.server.jobs` — the typed job lifecycle state machine and
  its crash-safe JSONL journal;
- :mod:`~repro.server.queue` — bounded admission with explicit
  backpressure and memory-pressure load shedding;
- :mod:`~repro.server.validate` — eager validation at the HTTP boundary
  (structured 400s instead of deep worker failures);
- :mod:`~repro.server.worker` — the per-attempt process, forked from a
  forkserver that has already imported it, with append-only
  deterministic resume of the round-event stream;
- :mod:`~repro.server.supervisor` — the forkserver, worker restarts
  with capped decorrelated-jitter backoff and poison detection;
- :mod:`~repro.server.app` — the :class:`JobService` HTTP surface
  (submit / status / cancel / NDJSON tail / healthz / readyz);
- :mod:`~repro.server.client` — a stdlib client for the CLI and tests.
"""

from repro.server.app import JobService
from repro.server.client import ServerClient, ServerUnavailable
from repro.server.jobs import (
    Job,
    JobJournal,
    JobState,
    JobStateError,
    TERMINAL_STATES,
    VALID_TRANSITIONS,
)
from repro.server.queue import Admission, BoundedJobQueue, MemoryWatermark
from repro.server.supervisor import WorkerSupervisor
from repro.server.validate import (
    InvalidSubmission,
    ParsedSubmission,
    parse_submission,
)

__all__ = [
    "Admission",
    "BoundedJobQueue",
    "InvalidSubmission",
    "Job",
    "JobJournal",
    "JobService",
    "JobState",
    "JobStateError",
    "MemoryWatermark",
    "ParsedSubmission",
    "ServerClient",
    "ServerUnavailable",
    "TERMINAL_STATES",
    "VALID_TRANSITIONS",
    "WorkerSupervisor",
    "parse_submission",
]
