"""The common interface every incentive mechanism implements.

The platform side of Fig. 1 is deliberately thin: before each round it
asks the mechanism for one number per active task — the per-measurement
reward — and publishes those.  Mechanisms never see individual users'
decisions, only the aggregate round state (task progress, current user
positions, and the platform's own ledger: what it has paid so far and
how many users stand near each task), which is exactly the information
the paper's platform has after "(4) Data Upload / (5) Demand Calculate".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.geometry.grid_index import bulk_counts
from repro.world.generator import World
from repro.world.task import TaskTable


@dataclass(frozen=True)
class RoundView:
    """What the platform knows when pricing round ``round_no``.

    The engine is the single source of the platform's ledger: a
    mechanism reads its spend from :attr:`total_paid` and its Eq. 5
    counts from :meth:`neighbour_counts`, and keeps no copy of either.

    Args:
        round_no: the 1-based round about to start.
        active_tasks: the published tasks (released, not completed, not
            expired), as a slice of the world's task table; iterating it
            gives :class:`~repro.world.task.SensingTask` rows.
        user_locations: every user's position at the start of the round,
            as a float64 ``(n, 2)`` array (the engine passes
            :attr:`World.positions`; read it, never write it).
        total_paid: rewards the platform paid in the rounds before this
            one (the engine's ``RunTotals.total_paid``; Eq. 8 bounds it
            by B).
    """

    round_no: int
    active_tasks: TaskTable
    user_locations: np.ndarray
    total_paid: float = 0.0

    def __post_init__(self) -> None:
        if self.round_no < 1:
            raise ValueError(f"round_no must be >= 1, got {self.round_no}")

    def neighbour_counts(self, tasks: TaskTable, radius: float) -> np.ndarray:
        """Eq. 5: users within ``radius`` of each task, as an int array.

        One exact recount of :attr:`user_locations` around the given
        tasks (:func:`~repro.geometry.grid_index.bulk_counts`); the
        engine's price cache makes this one call per round, over the
        published tasks only.
        """
        return bulk_counts(self.user_locations, tasks.locations, radius)


class IncentiveMechanism(abc.ABC):
    """Prices sensing tasks, once per round.

    Lifecycle: the engine calls :meth:`initialize` exactly once with the
    freshly generated world, then :meth:`rewards` at the start of every
    round.  Mechanisms may keep state between rounds (the fixed baseline
    freezes its round-1 prices; the steered baseline tracks nothing — it
    reads progress off the task table).
    """

    #: registry name, also used in experiment output rows
    name: str = "abstract"

    @abc.abstractmethod
    def initialize(self, world: World, rng: np.random.Generator) -> None:
        """Bind to a world before round 1 (derive budgets, draw any randomness)."""

    @abc.abstractmethod
    def rewards(self, view: RoundView) -> Dict[int, float]:
        """Per-measurement reward for every *active* task, keyed by task id.

        Must return a price for exactly the tasks in ``view.active_tasks``;
        the engine validates this, so a missing or extra key is an error in
        the mechanism, not a silent mispricing.
        """

    # -- helpers shared by concrete mechanisms ---------------------------

    @staticmethod
    def _require_all_tasks(
        prices: Dict[int, float], tasks: TaskTable
    ) -> Dict[int, float]:
        """Validate that ``prices`` covers exactly ``tasks`` with finite, positive values."""
        expected = set(tasks.ids.tolist())
        got = set(prices)
        if expected != got:
            raise ValueError(
                f"mechanism priced tasks {sorted(got)} but the round has "
                f"{sorted(expected)}"
            )
        for task_id, price in prices.items():
            if not np.isfinite(price) or price <= 0:
                raise ValueError(
                    f"reward for task {task_id} must be positive and finite, got {price}"
                )
        return prices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
