"""Fault tolerance for long-running experiment campaigns.

Four pillars (see docs/architecture.md, "Fault tolerance & resumability"):

- **error taxonomy** (:mod:`repro.resilience.errors`) — every failure
  the library can explain has a typed exception rooted at
  :class:`ReproError`;
- **bounded retry** (:mod:`repro.resilience.retry`) — exponential
  backoff for transient IO faults, nothing else;
- **run journal** (:mod:`repro.resilience.journal`) — crash-safe
  per-repetition checkpoints making campaigns resumable bit-identically;
- **cooperative cancellation** (:mod:`repro.resilience.cancel`) —
  tokens (flag / deadline / file / composite) that long operations poll
  at safe boundaries, raising :class:`OperationCancelled` so timeouts
  and client cancels stop a run cleanly.

The selector watchdog lives with the solvers it guards
(:class:`repro.selection.watchdog.TimeBoundedSelector`) but is part of
the same subsystem.

The seeded fault injectors that prove each recovery path live with the
tests that drive them (``tests/resilience/faults.py``).
"""

from repro.resilience.cancel import (
    NEVER_CANCELLED,
    CancellationToken,
    CompositeToken,
    DeadlineToken,
    FileToken,
    FlagToken,
)
from repro.resilience.errors import (
    ConfigError,
    MechanismPriceError,
    OperationCancelled,
    ReproError,
    ResultCorruption,
    SelectorTimeout,
    TransientIOError,
)
from repro.resilience.journal import RunJournal, config_fingerprint
from repro.resilience.retry import backoff_delays, with_retries

__all__ = [
    "ReproError",
    "ConfigError",
    "SelectorTimeout",
    "MechanismPriceError",
    "ResultCorruption",
    "TransientIOError",
    "OperationCancelled",
    "RunJournal",
    "config_fingerprint",
    "with_retries",
    "backoff_delays",
    "CancellationToken",
    "FlagToken",
    "DeadlineToken",
    "FileToken",
    "CompositeToken",
    "NEVER_CANCELLED",
]
