"""The coordinator interface for SAT-mode allocation.

A coordinator sees the whole round — every active task with its state
and every user with its position/budget — and returns one
:class:`~repro.selection.base.Selection` per user.  The engine then
executes those selections exactly as it would execute user-chosen ones
(same acceptance caps, payments, and mobility), so WST and SAT results
are directly comparable.

Contract (enforced by the engine's accounting and the tests):

- each returned selection must respect that user's travel budget,
- a user must not be assigned a task it already contributed to,
- the reported distance/reward/cost must match the visit order at the
  published prices.
"""

from __future__ import annotations

import abc
from typing import Dict, Sequence

import numpy as np

from repro.selection.base import Selection
from repro.world.task import TaskTable
from repro.world.user import MobileUser


class Coordinator(abc.ABC):
    """A server-side allocator for the SAT simulation mode."""

    #: registry-style name, used in experiment rows
    name: str = "abstract"

    @abc.abstractmethod
    def assign(
        self,
        round_no: int,
        active_tasks: TaskTable,
        users: Sequence[MobileUser],
        positions: np.ndarray,
        prices: Dict[int, float],
    ) -> Dict[int, Selection]:
        """Return a selection per user id (users may be omitted = sit out).

        Args:
            round_no: the 1-based round being planned.
            active_tasks: the published tasks, a slice of the world's
                task table with their sensing state.
            users: the users taking part this round.
            positions: ``(len(users), 2)`` float64 round-start positions,
                aligned with ``users``.
            prices: the incentive mechanism's published per-task rewards —
                SAT still pays users per measurement, so assignments
                should keep every user's profit non-negative.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
