"""Extension mechanism: budget-recycling on-demand pricing.

The paper derives :math:`r_0` from the *worst case* — every measurement
of every task paid at the top level (Eq. 8–9).  In practice most
measurements are paid below the top level and some tasks expire
unfinished, so a large fraction of B is never spent (our runs leave
~50 % of the budget on the table; see `quickstart.py`).

:class:`AdaptiveBudgetMechanism` recycles that slack.  Before each round
it recomputes the schedule from the *remaining* budget — B less the
platform's payouts so far, read from the round view's ``total_paid`` —
and the *remaining* required measurements of every active world task,
released or not:

.. math::  r_0^k = B_{remaining} / \\sum_i (\\varphi_i - \\pi_i)
           - \\lambda (N - 1)

clamped to never fall below the static Eq. 9 value (payments already made
cannot be taken back, and prices that shrink over time would reintroduce
the steered mechanism's disengagement problem).  The worst-case payout
guarantee is preserved round by round: even if every remaining
measurement were bought at the new top level, the remaining budget
covers it.  The guarantee covers every task the world holds, including
those a burst or staggered release publishes later; tasks an open
world's timeline streams in mid-run are not in the sum when the price
is set, so Eq. 8 is not guaranteed there.

This directly addresses the paper's own motivation — "if the rewards are
set too small, there may not be enough participants" — by spending the
freed budget on the hardest remaining work, and the ablation bench shows
it buys extra completeness at low user counts for the same total budget.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.ahp import PairwiseComparisonMatrix
from repro.core.levels import DemandLevels
from repro.core.mechanisms.base import RoundView
from repro.core.mechanisms.on_demand import OnDemandMechanism
from repro.core.rewards import RewardSchedule
from repro.world.generator import World


class AdaptiveBudgetMechanism(OnDemandMechanism):
    """On-demand pricing with per-round budget recycling.

    Same constructor knobs as :class:`OnDemandMechanism`; the schedule
    is re-derived every round from remaining budget (B less the view's
    ``total_paid``) and remaining work (read off the world's tasks).
    """

    name = "adaptive"

    def __init__(
        self,
        budget: float = 1000.0,
        step: float = 0.5,
        levels: Optional[DemandLevels] = None,
        neighbour_radius: float = 500.0,
        comparison_matrix: Optional[PairwiseComparisonMatrix] = None,
    ):
        super().__init__(
            budget=budget,
            step=step,
            levels=levels,
            neighbour_radius=neighbour_radius,
            comparison_matrix=comparison_matrix,
        )
        self._static_base: float = 0.0
        self._world: Optional[World] = None

    def initialize(self, world: World, rng: np.random.Generator) -> None:
        super().initialize(world, rng)
        self._world = world
        self._static_base = self.schedule.base_reward

    def rewards(self, view: RoundView) -> Dict[int, float]:
        if self._world is None:
            raise RuntimeError("initialize() must be called before rewards()")
        # Unreleased tasks count too: their measurements will be paid
        # from the same remaining budget once they are published.
        tasks = self._world.tasks
        remaining_work = int(tasks.remaining[tasks.active].sum())
        if remaining_work > 0:
            remaining_budget = max(0.0, self.budget - view.total_paid)
            base = remaining_budget / remaining_work - self.step * (
                self.levels.count - 1
            )
            # Never price below the static schedule: prices that decay over
            # time are the steered failure mode the paper documents.
            base = max(base, self._static_base)
            self.schedule = RewardSchedule(
                base_reward=base, step=self.step, levels=self.levels
            )
        return super().rewards(view)
