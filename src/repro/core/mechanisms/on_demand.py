"""The paper's contribution: the demand-based dynamic incentive mechanism.

Per round (Section IV):

1. compute each active task's three factor demands (Eq. 3–5) from its
   deadline, progress, and neighbouring-user count,
2. combine them with AHP weights and normalise to [0, 1] (Eq. 2 + IV-C),
3. bucket into demand levels (Table III),
4. price via :math:`r = r_0 + \\lambda(DL - 1)` (Eq. 7) with the
   budget-derived :math:`r_0` (Eq. 9).

Neighbour counts are exact counts over the users' *current* positions —
the demands are "real-time" in the paper's sense.  They come from
:meth:`RoundView.neighbour_counts <repro.core.mechanisms.base.RoundView.
neighbour_counts>` (one recount of the view's user positions).  Steps
1–4 run as numpy arithmetic, each step bit-identical per element to its
scalar counterpart (the test suite's scalar grid oracle,
:meth:`DemandCalculator.demands`,
:meth:`RewardSchedule.reward_for_demand`).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.ahp import PairwiseComparisonMatrix
from repro.core.demand import DemandCalculator, DemandWeights
from repro.core.levels import DemandLevels
from repro.core.rewards import RewardSchedule
from repro.core.mechanisms.base import IncentiveMechanism, RoundView
from repro.world.generator import World


class OnDemandMechanism(IncentiveMechanism):
    """Demand-based dynamic pricing (the paper's Section IV mechanism).

    Args:
        budget: platform reward budget B (used to derive :math:`r_0`
            from the world's total required measurements at
            :meth:`initialize`, Eq. 9).  Ignored if ``schedule`` is given.
        step: per-level reward increment :math:`\\lambda` (Eq. 7).
        levels: demand-level partition (default: the paper's N = 5).
        neighbour_radius: the R of "users within R meters are neighbours"
            (Eq. 5 context); the paper leaves the value open, we default
            to 500 m (see DESIGN.md §3).
        comparison_matrix: AHP matrix over (deadline, progress,
            neighbours); default is the paper's Table I example.
        weight_method: AHP weight extraction method (see
            :meth:`PairwiseComparisonMatrix.weights`).
        schedule: explicit reward schedule, bypassing the Eq. 9
            derivation (used by tests and ablations).
        weights: explicit criteria weights, bypassing the AHP derivation
            (used by the factor-ablation experiments).
        deadline_scale / progress_scale / scarcity_scale: the factor
            coefficients :math:`\\lambda_{1..3}`.
    """

    name = "on-demand"

    def __init__(
        self,
        budget: float = 1000.0,
        step: float = 0.5,
        levels: Optional[DemandLevels] = None,
        neighbour_radius: float = 500.0,
        comparison_matrix: Optional[PairwiseComparisonMatrix] = None,
        weight_method: str = "column-normalization",
        schedule: Optional[RewardSchedule] = None,
        weights: Optional[DemandWeights] = None,
        deadline_scale: float = 1.0,
        progress_scale: float = 1.0,
        scarcity_scale: float = 1.0,
    ):
        if neighbour_radius <= 0:
            raise ValueError(
                f"neighbour_radius must be positive, got {neighbour_radius}"
            )
        self.budget = budget
        self.step = step
        self.levels = levels if levels is not None else DemandLevels(5)
        self.neighbour_radius = neighbour_radius
        if weights is not None and comparison_matrix is not None:
            raise ValueError("pass either weights or comparison_matrix, not both")
        self.weights = (
            weights
            if weights is not None
            else DemandWeights.from_ahp(comparison_matrix, weight_method)
        )
        self.calculator = DemandCalculator(
            weights=self.weights,
            deadline_scale=deadline_scale,
            progress_scale=progress_scale,
            scarcity_scale=scarcity_scale,
        )
        self.schedule: Optional[RewardSchedule] = schedule
        #: normalised demands of the last priced round, keyed by task id —
        #: exposed for observability (experiments and tests read it).
        self.last_demands: Dict[int, float] = {}

    def initialize(self, world: World, rng: np.random.Generator) -> None:
        if self.schedule is None:
            self.schedule = RewardSchedule.from_budget(
                budget=self.budget,
                total_required_measurements=world.total_required_measurements,
                step=self.step,
                levels=self.levels,
            )

    def rewards(self, view: RoundView) -> Dict[int, float]:
        """Eq. 2–7 for every published task, as numpy arithmetic.

        Neighbour counts come from :meth:`RoundView.neighbour_counts`
        (exact counts, boundary-rechecked), demands
        from :meth:`DemandCalculator.demands_array` (distinct-value
        scalar logs), prices from :meth:`RewardSchedule.rewards_array`.
        """
        if self.schedule is None:
            raise RuntimeError("initialize() must be called before rewards()")
        tasks = view.active_tasks
        if not len(tasks):
            self.last_demands = {}
            return {}
        demands = self.calculator.demands_array(
            round_no=view.round_no,
            deadlines=tasks.deadline,
            received=tasks.received,
            required=tasks.required,
            neighbours=view.neighbour_counts(tasks, self.neighbour_radius),
        )
        ids = tasks.ids.tolist()
        self.last_demands = dict(zip(ids, demands.tolist()))
        prices = dict(zip(ids, self.schedule.rewards_array(demands).tolist()))
        return self._require_all_tasks(prices, tasks)
