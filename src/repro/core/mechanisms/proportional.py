"""Ablation mechanism: continuous demand pricing without Table III levels.

The paper buckets normalised demand into N discrete levels before pricing
(Table III + Eq. 7).  This ablation removes the bucketing and pays

.. math::  r = r_0 + \\bar{d} \\cdot \\lambda (N - 1)

i.e. the same price range as the on-demand mechanism but linear in the
*continuous* normalised demand.  Comparing the two isolates what the
discretisation contributes (``experiments/ablations.py``).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.ahp import PairwiseComparisonMatrix
from repro.core.demand import DemandCalculator, DemandWeights, TaskDemandInputs
from repro.core.levels import DemandLevels
from repro.core.rewards import RewardSchedule
from repro.core.mechanisms.base import IncentiveMechanism, RoundView
from repro.world.generator import World


class ProportionalDemandMechanism(IncentiveMechanism):
    """Demand-proportional pricing: Eq. 7 with the level function removed.

    Shares every other ingredient (AHP weights, factor functions,
    budget-derived :math:`r_0`) with :class:`OnDemandMechanism`, so any
    behavioural difference is attributable to the bucketing alone.
    """

    name = "proportional"

    def __init__(
        self,
        budget: float = 1000.0,
        step: float = 0.5,
        levels: Optional[DemandLevels] = None,
        neighbour_radius: float = 500.0,
        comparison_matrix: Optional[PairwiseComparisonMatrix] = None,
    ):
        if neighbour_radius <= 0:
            raise ValueError(
                f"neighbour_radius must be positive, got {neighbour_radius}"
            )
        self.budget = budget
        self.step = step
        self.levels = levels if levels is not None else DemandLevels(5)
        self.neighbour_radius = neighbour_radius
        self.weights = DemandWeights.from_ahp(comparison_matrix)
        self.calculator = DemandCalculator(weights=self.weights)
        self.schedule: Optional[RewardSchedule] = None

    def initialize(self, world: World, rng: np.random.Generator) -> None:
        self.schedule = RewardSchedule.from_budget(
            budget=self.budget,
            total_required_measurements=world.total_required_measurements,
            step=self.step,
            levels=self.levels,
        )

    def rewards(self, view: RoundView) -> Dict[int, float]:
        if self.schedule is None:
            raise RuntimeError("initialize() must be called before rewards()")
        tasks = view.active_tasks
        if not len(tasks):
            return {}
        inputs = [
            TaskDemandInputs(
                round_no=view.round_no, deadline=deadline, received=received,
                required=required, neighbours=neighbours,
            )
            for deadline, received, required, neighbours in zip(
                tasks.deadline.tolist(), tasks.received.tolist(),
                tasks.required.tolist(),
                view.neighbour_counts(tasks, self.neighbour_radius).tolist(),
            )
        ]
        demands = self.calculator.demands(inputs)
        span = self.schedule.step * (self.levels.count - 1)
        prices = {
            task_id: self.schedule.base_reward + demand * span
            for task_id, demand in zip(tasks.ids.tolist(), demands)
        }
        return self._require_all_tasks(prices, tasks)
