"""Ready-made round observers for the simulation engine.

The engine accepts any callable taking a
:class:`~repro.simulation.events.RoundRecord`; these are the ones the
examples and the CLI use:

- :class:`ProgressPrinter` — one status line per round, for watching a
  long run.
- :class:`BudgetLedger` — a running platform ledger (paid this round,
  cumulative, remaining budget) that raises the moment a budget breach
  would occur, turning the Eq. 8 guarantee into a live assertion.
- :class:`CoverageTracker` — running coverage per round, the live
  version of :func:`repro.metrics.coverage_by_round`.
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


class BudgetLedger:
    """A running platform ledger with a hard budget assertion.

    Args:
        budget: the platform budget B; a round that would push the
            cumulative payout past it raises immediately (the engine's
            Eq. 8 accounting makes this unreachable — the ledger is the
            tripwire proving it stays that way).
    """

    def __init__(self, budget: float):
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self.budget = budget
        self.paid_by_round: List[float] = []

    @property
    def total_paid(self) -> float:
        return sum(self.paid_by_round)

    @property
    def remaining(self) -> float:
        return self.budget - self.total_paid

    def __call__(self, record: RoundRecord) -> None:
        self.paid_by_round.append(record.total_paid)
        if self.total_paid > self.budget + 1e-9:
            raise RuntimeError(
                f"budget breach at round {record.round_no}: paid "
                f"{self.total_paid:.2f} of {self.budget:.2f}"
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
