"""Shared types for the task-selection solvers.

A solver consumes a :class:`~repro.selection.problem.TaskSelectionProblem`
and produces a :class:`Selection`: the ordered tasks to visit plus the
resulting distance/reward/cost accounting.  Solvers never touch world
objects directly — the engine translates tasks into plain
:class:`CandidateTask` records first, which keeps the solvers pure and
easy to test in isolation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Tuple, TYPE_CHECKING

from repro.geometry.point import Point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.selection.problem import ProblemBlock, TaskSelectionProblem


@dataclass(frozen=True)
class CandidateTask:
    """One selectable task as the solver sees it: id, location, price."""

    task_id: int
    location: Point
    reward: float

    def __post_init__(self) -> None:
        if self.reward < 0:
            raise ValueError(f"reward must be non-negative, got {self.reward}")


@dataclass(frozen=True)
class Selection:
    """The outcome of one user's task selection for one round.

    Args:
        task_ids: the selected task ids in *visit order*.
        distance: total travel distance of the origin-anchored path (m).
        reward: sum of the selected tasks' rewards ($).
        cost: movement cost ($) — ``distance * cost_per_meter``.
    """

    task_ids: Tuple[int, ...]
    distance: float
    reward: float
    cost: float

    def __post_init__(self) -> None:
        if self.distance < 0 or self.reward < 0 or self.cost < 0:
            raise ValueError(
                f"distance/reward/cost must be non-negative, got "
                f"{self.distance}/{self.reward}/{self.cost}"
            )
        if len(set(self.task_ids)) != len(self.task_ids):
            raise ValueError(f"duplicate task ids in selection: {self.task_ids}")

    @property
    def profit(self) -> float:
        """The user's profit :math:`P = \\sum r_t - C` (Eq. 1 objective)."""
        return self.reward - self.cost

    @property
    def is_empty(self) -> bool:
        return not self.task_ids

    def __len__(self) -> int:
        return len(self.task_ids)

    @classmethod
    def empty(cls) -> "Selection":
        """The sit-out selection: travel nothing, earn nothing.

        Returns a per-class singleton — the instance is frozen and the
        engine asks for it once per non-participating user per round,
        which at city scale is hundreds of thousands of constructions a
        round for a value that never varies.
        """
        cached = cls.__dict__.get("_EMPTY")
        if cached is None:
            cached = cls(task_ids=(), distance=0.0, reward=0.0, cost=0.0)
            cls._EMPTY = cached
        return cached


class Selector(abc.ABC):
    """A task-selection algorithm.

    Implementations must be deterministic functions of the problem: the
    engine relies on replayability for seeded experiments.
    """

    #: registry name, used in experiment rows and the CLI
    name: str = "abstract"

    @abc.abstractmethod
    def select(self, problem: "TaskSelectionProblem") -> Selection:
        """Return the tasks to perform (possibly :meth:`Selection.empty`).

        Contract (checked by the property tests):
          - ``distance <= problem.max_distance`` (time-budget feasibility),
          - the reported distance/reward/cost match the returned order,
          - a rational user: ``profit > 0`` or the selection is empty.
        """

    def select_block(self, block: "ProblemBlock") -> List[Selection]:
        """One selection per row of ``block``, in row order.

        Must equal ``[self.select(block.problem(j)) for j in ...]`` —
        which is this default.  Solvers with a vectorised form (the
        greedy's array steps, the exact DP's one pass over every row's
        states) override it; the rest, and wrappers such as the
        watchdog, answer row by row.
        """
        return [self.select(block.problem(j)) for j in range(len(block))]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
