"""Ready-made round observers for the simulation engine.

The engine accepts any callable taking a
:class:`~repro.simulation.events.RoundRecord`; these are the ones the
examples and the CLI use:

- :class:`ProgressPrinter` — one status line per round, for watching a
  long run.
- :class:`CoverageTracker` — running coverage per round, the live
  version of :func:`repro.metrics.coverage_by_round`.

The platform's spend is not an observer: the engine's run ledger
(``SimulationResult.total_paid``) is the one record of it, and each
round's :class:`~repro.core.mechanisms.base.RoundView` hands it to the
mechanism.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Set, TextIO

from repro.simulation.events import RoundRecord


class ProgressPrinter:
    """Prints one compact line per finished round.

    Args:
        stream: where to write (default stdout).
        prefix: optional tag shown on every line (e.g. the mechanism name).
    """

    def __init__(self, stream: Optional[TextIO] = None, prefix: str = ""):
        self.stream = stream if stream is not None else sys.stdout
        self.prefix = prefix

    def __call__(self, record: RoundRecord) -> None:
        tag = f"{self.prefix} " if self.prefix else ""
        self.stream.write(
            f"{tag}round {record.round_no:>2}: "
            f"{record.measurement_count:>4} measurements, "
            f"{record.participating_users:>4} active users, "
            f"{len(record.completed_task_ids)} completed, "
            f"{len(record.expired_task_ids)} expired, "
            f"${record.total_paid:.2f} paid\n"
        )


class CoverageTracker:
    """Tracks cumulative coverage as the run unfolds.

    Args:
        n_tasks: total number of tasks in the world (the denominator).
    """

    def __init__(self, n_tasks: int):
        if n_tasks < 1:
            raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
        self.n_tasks = n_tasks
        self._covered: Set[int] = set()
        self.by_round: List[float] = []

    @property
    def coverage(self) -> float:
        return len(self._covered) / self.n_tasks

    def __call__(self, record: RoundRecord) -> None:
        self._covered.update(record.measurements.task_ids.tolist())
        self.by_round.append(self.coverage)
