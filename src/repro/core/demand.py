"""The demand indicator: Eq. 2–5 of the paper.

The demand :math:`d^k_i` of task :math:`t_i` at round k is a weighted sum
of three factor demands:

- :func:`deadline_factor` — Eq. 3: grows as round k approaches the
  deadline :math:`\\tau_i`, bounded by :math:`\\lambda_1 \\ln 2`.
- :func:`progress_factor` — Eq. 4: shrinks as the completing progress
  :math:`\\pi_i / \\varphi_i` grows, bounded by :math:`\\lambda_2 \\ln 2`.
- :func:`scarcity_factor` — Eq. 5: grows as the task has fewer
  neighbouring users relative to the best-served task, bounded by
  :math:`\\lambda_3 \\ln 2`.

:class:`DemandCalculator` combines them with AHP weights (Eq. 2) and
normalises by :math:`\\lambda_{max} \\ln 2` so the result lies in [0, 1]
(Section IV-C), ready for the level bucketing of Table III.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.ahp import PairwiseComparisonMatrix, example_comparison_matrix


@dataclass(frozen=True)
class DemandWeights:
    """The AHP weight vector :math:`W = (w_1, w_2, w_3)^T` of Eq. 2.

    Weights must be non-negative and sum to 1 (the paper's constraint
    :math:`w_1 + w_2 + w_3 = 1`).
    """

    deadline: float
    progress: float
    scarcity: float

    def __post_init__(self) -> None:
        weights = (self.deadline, self.progress, self.scarcity)
        if any(w < 0 for w in weights):
            raise ValueError(f"weights must be non-negative, got {weights}")
        if not math.isclose(sum(weights), 1.0, abs_tol=1e-9):
            raise ValueError(f"weights must sum to 1, got {sum(weights)}")

    @classmethod
    def from_ahp(
        cls,
        matrix: PairwiseComparisonMatrix = None,
        method: str = "column-normalization",
    ) -> "DemandWeights":
        """Derive weights from an AHP comparison matrix (Table I by default).

        Raises:
            ValueError: if the matrix order is not 3 — the demand model
                has exactly three criteria.
        """
        if matrix is None:
            matrix = example_comparison_matrix()
        if matrix.order != 3:
            raise ValueError(
                f"the demand model has 3 criteria, got a matrix of order {matrix.order}"
            )
        w = matrix.weights(method)
        return cls(deadline=float(w[0]), progress=float(w[1]), scarcity=float(w[2]))

    def as_array(self) -> np.ndarray:
        return np.asarray([self.deadline, self.progress, self.scarcity], dtype=float)


def deadline_factor(round_no: int, deadline: int, scale: float = 1.0) -> float:
    """Demand affected by the deadline (Eq. 3).

    :math:`X^k_{i1} = \\lambda_1 \\ln(1 + 1 / (\\tau_i - (k - 1)))`.

    The factor increases — with increasing growth rate — as round k
    approaches the deadline, reaching :math:`\\lambda_1 \\ln 2` at
    :math:`k = \\tau_i`.

    Args:
        round_no: current round k (1-based).
        deadline: the task deadline :math:`\\tau_i` in rounds.
        scale: the coefficient :math:`\\lambda_1`.

    Raises:
        ValueError: if the task's deadline already passed (the engine
            never asks for the demand of an expired task).
    """
    if round_no < 1:
        raise ValueError(f"round_no must be >= 1, got {round_no}")
    remaining = deadline - (round_no - 1)
    if remaining < 1:
        raise ValueError(
            f"round {round_no} is past deadline {deadline}; expired tasks have no demand"
        )
    return scale * math.log(1.0 + 1.0 / remaining)


def progress_factor(received: int, required: int, scale: float = 1.0) -> float:
    """Demand affected by the completing progress (Eq. 4).

    :math:`X^k_{i2} = \\lambda_2 \\ln(1 + (1 - \\pi_i / \\varphi_i))`.

    Maximal (:math:`\\lambda_2 \\ln 2`) for an untouched task, zero for a
    complete one, with the *reduction* rate growing as progress nears 1.
    """
    if required < 1:
        raise ValueError(f"required must be >= 1, got {required}")
    if received < 0:
        raise ValueError(f"received must be non-negative, got {received}")
    progress = min(1.0, received / required)
    return scale * math.log(2.0 - progress)


def scarcity_factor(neighbours: int, max_neighbours: int, scale: float = 1.0) -> float:
    """Demand affected by the number of neighbouring users (Eq. 5).

    :math:`X^k_{i3} = \\lambda_3 \\ln(1 + (1 - N_i / N_{max}))` where
    :math:`N_{max}` is the largest neighbour count over all tasks this
    round.  A task with no users nearby gets the full
    :math:`\\lambda_3 \\ln 2`; the best-served task gets 0.

    If *no* task has any neighbour (:math:`N_{max} = 0`), all tasks are
    equally starved and the factor is maximal for every task.
    """
    if neighbours < 0:
        raise ValueError(f"neighbours must be non-negative, got {neighbours}")
    if max_neighbours < neighbours:
        raise ValueError(
            f"max_neighbours ({max_neighbours}) < neighbours ({neighbours})"
        )
    if max_neighbours == 0:
        return scale * math.log(2.0)
    return scale * math.log(2.0 - neighbours / max_neighbours)


def scarcity_factors(
    neighbours: Sequence[int],
    max_neighbours: int,
    scale: float = 1.0,
) -> np.ndarray:
    """Array-native :func:`scarcity_factor`: one Eq. 5 factor per task.

    Validation runs once over the whole vector instead of once per task,
    and the logs go through :func:`_log_unique` — neighbour ratios take
    few distinct values per round, so the result is bit-identical to the
    scalar factor per element (same IEEE divisions, same ``math.log``).
    """
    counts = np.asarray(neighbours)
    if counts.size == 0:
        return np.zeros(0)
    if np.any(counts < 0):
        bad = int(counts[counts < 0][0])
        raise ValueError(f"neighbours must be non-negative, got {bad}")
    if max_neighbours < int(counts.max()):
        raise ValueError(
            f"max_neighbours ({max_neighbours}) < neighbours "
            f"({int(counts.max())})"
        )
    if max_neighbours == 0:
        return np.full(counts.shape, scale * math.log(2.0))
    return scale * _log_unique(2.0 - counts / max_neighbours)


@dataclass(frozen=True)
class TaskDemandInputs:
    """Everything the demand indicator needs to know about one task at round k."""

    round_no: int
    deadline: int
    received: int
    required: int
    neighbours: int


@dataclass(frozen=True)
class DemandCalculator:
    """Computes weighted, normalised task demands (Eq. 2 + Section IV-C).

    Args:
        weights: the AHP criteria weights.
        deadline_scale / progress_scale / scarcity_scale: the coefficients
            :math:`\\lambda_1, \\lambda_2, \\lambda_3` of Eq. 3–5.
    """

    weights: DemandWeights
    deadline_scale: float = 1.0
    progress_scale: float = 1.0
    scarcity_scale: float = 1.0

    def __post_init__(self) -> None:
        scales = (self.deadline_scale, self.progress_scale, self.scarcity_scale)
        if any(s <= 0 for s in scales):
            raise ValueError(f"factor scales must be positive, got {scales}")

    @property
    def max_demand(self) -> float:
        """The bound :math:`\\lambda_{max} \\ln 2` on any raw demand.

        From Section IV-B: each factor is bounded by its
        :math:`\\lambda \\ln 2` and the weights sum to 1.
        """
        return max(
            self.deadline_scale, self.progress_scale, self.scarcity_scale
        ) * math.log(2.0)

    def raw_demand(self, inputs: TaskDemandInputs, max_neighbours: int) -> float:
        """The un-normalised demand :math:`d^k_i` of Eq. 2."""
        x1 = deadline_factor(inputs.round_no, inputs.deadline, self.deadline_scale)
        x2 = progress_factor(inputs.received, inputs.required, self.progress_scale)
        x3 = scarcity_factor(inputs.neighbours, max_neighbours, self.scarcity_scale)
        return (
            self.weights.deadline * x1
            + self.weights.progress * x2
            + self.weights.scarcity * x3
        )

    def normalized_demand(self, inputs: TaskDemandInputs, max_neighbours: int) -> float:
        """The normalised demand :math:`\\bar{d}^k_i = d^k_i / (\\lambda_{max} \\ln 2)` in [0, 1].

        Clamped against float round-off so the [0, 1] contract the level
        bucketing relies on holds exactly.
        """
        value = self.raw_demand(inputs, max_neighbours) / self.max_demand
        return min(1.0, max(0.0, value))

    def demands(self, tasks: Sequence[TaskDemandInputs]) -> List[float]:
        """Normalised demands for a whole round's task population.

        :math:`N_{max}` of Eq. 5 is taken over the given tasks, which is
        exactly the paper's "maximum number of neighbouring mobile users
        among all tasks".  An empty population yields an empty list.
        """
        if not tasks:
            return []
        max_neighbours = max(t.neighbours for t in tasks)
        # Eq. 5 is the only factor coupling tasks (through N_max), so it
        # is computed for the whole population at once via the
        # array-native variant; the per-task factors stay scalar.  Each
        # x3 element is bitwise the scalar factor, and the weighted sum
        # below evaluates in raw_demand's exact order, so this routing
        # is invisible in the produced demands.
        x3 = scarcity_factors(
            [t.neighbours for t in tasks], max_neighbours, self.scarcity_scale
        )
        bound = self.max_demand
        demands: List[float] = []
        for inputs, x3_i in zip(tasks, x3):
            x1 = deadline_factor(
                inputs.round_no, inputs.deadline, self.deadline_scale
            )
            x2 = progress_factor(
                inputs.received, inputs.required, self.progress_scale
            )
            raw = (
                self.weights.deadline * x1
                + self.weights.progress * x2
                + self.weights.scarcity * float(x3_i)
            )
            demands.append(min(1.0, max(0.0, raw / bound)))
        return demands

    def demands_array(
        self,
        round_no: int,
        deadlines: np.ndarray,
        received: np.ndarray,
        required: np.ndarray,
        neighbours: np.ndarray,
    ) -> np.ndarray:
        """Vectorised :meth:`demands`, bit-identical per element.

        The log arguments are built with elementwise IEEE arithmetic
        (identical to the scalar path) and the logs themselves are taken
        with :func:`math.log` on the *distinct* argument values only —
        remaining deadlines, progress fractions, and neighbour ratios
        take few distinct values per round — then broadcast back.  That
        sidesteps the last-ulp differences between ``np.log`` and libm's
        ``log`` that would otherwise let it drift from :meth:`demands`.

        Raises:
            ValueError: if any task is already expired (same contract as
                :func:`deadline_factor`).
        """
        n = len(deadlines)
        if n == 0:
            return np.zeros(0)
        remaining = np.asarray(deadlines, dtype=float) - (round_no - 1)
        if round_no < 1:
            raise ValueError(f"round_no must be >= 1, got {round_no}")
        if np.any(remaining < 1):
            raise ValueError(
                f"round {round_no} is past a task deadline; "
                f"expired tasks have no demand"
            )
        x1 = self.deadline_scale * _log_unique(1.0 + 1.0 / remaining)
        progress = np.minimum(1.0, np.asarray(received) / np.asarray(required))
        x2 = self.progress_scale * _log_unique(2.0 - progress)
        max_neighbours = int(np.max(neighbours)) if n else 0
        x3 = scarcity_factors(neighbours, max_neighbours, self.scarcity_scale)
        raw = (
            self.weights.deadline * x1
            + self.weights.progress * x2
            + self.weights.scarcity * x3
        )
        return np.minimum(1.0, np.maximum(0.0, raw / self.max_demand))


def _log_unique(values: np.ndarray) -> np.ndarray:
    """Elementwise ``math.log``, evaluated once per distinct value.

    ``np.log`` is not guaranteed to round identically to ``math.log``;
    the demand factors feed from small discrete input sets, so paying
    one scalar log per distinct value keeps the vectorised demand path
    bit-identical to the scalar one at negligible cost.
    """
    uniq, inverse = np.unique(values, return_inverse=True)
    logs = np.asarray([math.log(v) for v in uniq])
    return logs[inverse]
