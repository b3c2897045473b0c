"""The fixed incentive baseline.

From Section VI: "the fixed incentive mechanism randomly generates a
demand level for each task as presented in Table III and uses the
corresponding reward for each task.  The reward of each task would not
change in latter rounds."
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.levels import DemandLevels
from repro.core.rewards import RewardSchedule
from repro.core.mechanisms.base import IncentiveMechanism, RoundView
from repro.world.generator import World


class FixedMechanism(IncentiveMechanism):
    """One random demand level per task, frozen for the whole simulation.

    Uses the same Eq. 7/9 reward schedule as the on-demand mechanism so
    the two are budget-comparable; only the *level assignment* differs
    (random and frozen instead of demand-driven and per-round).
    """

    name = "fixed"

    def __init__(
        self,
        budget: float = 1000.0,
        step: float = 0.5,
        levels: Optional[DemandLevels] = None,
        schedule: Optional[RewardSchedule] = None,
    ):
        self.budget = budget
        self.step = step
        self.levels = levels if levels is not None else DemandLevels(5)
        self.schedule: Optional[RewardSchedule] = schedule
        self._prices: Dict[int, float] = {}

    def initialize(self, world: World, rng: np.random.Generator) -> None:
        if self.schedule is None:
            self.schedule = RewardSchedule.from_budget(
                budget=self.budget,
                total_required_measurements=world.total_required_measurements,
                step=self.step,
                levels=self.levels,
            )
        drawn_levels = rng.integers(1, self.levels.count + 1, size=len(world.tasks))
        self._prices = {
            task_id: self.schedule.reward_for_level(level)
            for task_id, level in zip(world.tasks.ids.tolist(), drawn_levels.tolist())
        }

    def rewards(self, view: RoundView) -> Dict[int, float]:
        if not self._prices and len(view.active_tasks):
            raise RuntimeError("initialize() must be called before rewards()")
        prices = {
            task_id: self._prices[task_id]
            for task_id in view.active_tasks.ids.tolist()
        }
        return self._require_all_tasks(prices, view.active_tasks)
