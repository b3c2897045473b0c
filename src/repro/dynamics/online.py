"""Online incentive baselines for the open world.

Two mechanisms the dynamic setting can compare the paper's pay-on-demand
pricing against:

- :class:`OMGOnlineMechanism` ("omg-online") — multi-stage
  sampling-accept threshold pricing after the OMG line of online
  budget-feasible mechanisms (arXiv 1306.5677).  The horizon is split
  into geometric stages with geometrically growing budget allocations
  (the short first stage is the sampling stage); each round publishes
  one uniform threshold price, set so the stage's allocation, less what
  the platform has already paid (the round view's ``total_paid``), can
  cover every outstanding measurement — budget-feasible per stage by
  construction (up to the strictly-positive price floor the engine's
  price validation requires).
- :class:`IncentMeMechanism` ("incentme") — mobility-uncertainty-
  weighted rewards after IncentMe (arXiv 1804.11150).  Each task's
  reward grows with supply scarcity (few neighbouring users), demand
  urgency (unmet measurements), and *mobility uncertainty*: the
  volatility of the task's neighbour count plus the instability of the
  crowd itself, read from the
  :class:`~repro.dynamics.stream.WorldTimeline`'s presence ledger when
  the world is open.  Scores are clipped to [0, 1] and priced through
  the paper's Eq. 9 budget-derived
  :class:`~repro.core.rewards.RewardSchedule`, so total payout respects
  the budget exactly as the on-demand mechanism's does.

IncentMe prices with per-task python float arithmetic from the exact
neighbour counts of :meth:`RoundView.neighbour_counts
<repro.core.mechanisms.base.RoundView.neighbour_counts>`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.levels import DemandLevels
from repro.core.mechanisms.base import IncentiveMechanism, RoundView
from repro.core.rewards import RewardSchedule
from repro.world.generator import World


def stage_plan(horizon: int, budget: float) -> List[Tuple[int, float]]:
    """OMG's stage structure: (stage end round, cumulative budget) pairs.

    The horizon is halved ``K`` times (K = number of stages); stage
    ``j`` ends at round ``horizon >> (K - j)`` and unlocks a budget
    allocation of ``B / 2^(K - j + 1)`` — so allocations double stage
    over stage and their total stays strictly under ``B`` (the reserved
    ``B / 2^K`` absorbs the sampling stage's estimation error).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    stages = max(1, horizon.bit_length() - 1)
    plan: List[Tuple[int, float]] = []
    cumulative = 0.0
    for j in range(1, stages + 1):
        end = horizon >> (stages - j)
        cumulative += budget / float(2 ** (stages - j + 1))
        plan.append((end, cumulative))
    return plan


class OMGOnlineMechanism(IncentiveMechanism):
    """Multi-stage online budget-feasible threshold pricing.

    Args:
        budget: total platform budget B over the whole run.
        step: price granularity (thresholds are quantised down to this
            grid, mirroring the paper's Eq. 7 reward grid).
        levels: accepted for registry-call uniformity; thresholds are
            not level-priced, so this is unused.
        horizon: the run's round count (stage boundaries derive from it;
            the engine passes ``config.rounds``).
        price_floor: the strictly-positive minimum price (the engine
            rejects non-positive prices; a stage that has exhausted its
            allocation publishes this epsilon threshold instead).
    """

    name = "omg-online"

    def __init__(
        self,
        budget: float = 1000.0,
        step: float = 0.5,
        levels: Optional[DemandLevels] = None,
        horizon: int = 15,
        price_floor: float = 1e-6,
    ):
        if price_floor <= 0:
            raise ValueError(f"price_floor must be positive, got {price_floor}")
        self.budget = float(budget)
        self.step = float(step)
        self.horizon = int(horizon)
        self.price_floor = float(price_floor)
        self.plan = stage_plan(self.horizon, self.budget)
        #: observability hooks the engine probes (no demand levels here).
        self.last_demands: Dict[int, float] = {}
        self.levels = None

    def initialize(self, world: World, rng: np.random.Generator) -> None:
        """Nothing to bind: spend comes from each round's view."""

    def cumulative_budget(self, round_no: int) -> float:
        """The budget unlocked by the stage containing ``round_no``."""
        for end, cumulative in self.plan:
            if round_no <= end:
                return cumulative
        return self.plan[-1][1]

    def rewards(self, view: RoundView) -> Dict[int, float]:
        tasks = view.active_tasks
        if not len(tasks):
            self.last_demands = {}
            return {}
        available = max(
            0.0, self.cumulative_budget(view.round_no) - view.total_paid
        )
        outstanding = int(tasks.remaining.sum())
        raw = available / max(1, outstanding)
        # Quantise the threshold *down* to the step grid so the stage
        # allocation always covers every outstanding measurement; the
        # floor keeps prices strictly positive when a stage is spent
        # (epsilon payments bounded by floor x outstanding).
        threshold = math.floor(raw / self.step) * self.step
        price = threshold if threshold >= self.step else self.price_floor
        prices = dict.fromkeys(tasks.ids.tolist(), price)
        self.last_demands = {}
        return self._require_all_tasks(prices, tasks)


class IncentMeMechanism(IncentiveMechanism):
    """Mobility-uncertainty-weighted rewards on the Eq. 9 budget grid.

    Per task, per round, the normalised score in [0, 1] combines:

    - *scarcity*: ``1 / (1 + ema)`` of the task's neighbour count — few
      nearby users means the platform must pay more,
    - *urgency*: the unmet fraction of required measurements,
    - *uncertainty*: the task's neighbour-count volatility (EMA of
      absolute one-round changes, relative to the running level) blended
      with the crowd's instability — ``1 - mean presence fraction`` from
      the timeline's ledger when the world is open (1 - 1.0 = 0 in a
      closed world).

    The score is priced through
    :meth:`~repro.core.rewards.RewardSchedule.reward_for_demand`, whose
    Eq. 9 base reward is derived from the budget over *all* required
    measurements — including the timeline's still-unpublished streamed
    tasks — so the run's total payout stays budget-feasible.

    Args:
        budget: platform budget B.
        step: per-level reward increment (Eq. 7 grid).
        levels: demand-level partition (default: the paper's N = 5).
        neighbour_radius: the Eq. 5 neighbourhood radius in meters.
        uncertainty_weight: the uncertainty share of the score in
            [0, 1] (the rest goes to scarcity + urgency, split evenly).
        smoothing: EMA factor in (0, 1] for the neighbour statistics
            (1 = no memory).
    """

    name = "incentme"

    def __init__(
        self,
        budget: float = 1000.0,
        step: float = 0.5,
        levels: Optional[DemandLevels] = None,
        neighbour_radius: float = 500.0,
        uncertainty_weight: float = 0.5,
        smoothing: float = 0.5,
    ):
        if neighbour_radius <= 0:
            raise ValueError(
                f"neighbour_radius must be positive, got {neighbour_radius}"
            )
        if not 0.0 <= uncertainty_weight <= 1.0:
            raise ValueError(
                f"uncertainty_weight must be in [0, 1], got {uncertainty_weight}"
            )
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        self.budget = float(budget)
        self.step = float(step)
        self.levels = levels if levels is not None else DemandLevels(5)
        self.neighbour_radius = float(neighbour_radius)
        self.uncertainty_weight = float(uncertainty_weight)
        self.smoothing = float(smoothing)
        self.schedule: Optional[RewardSchedule] = None
        #: per-task neighbour-count EMA and volatility (EMA of |delta|).
        self._ema: Dict[int, float] = {}
        self._volatility: Dict[int, float] = {}
        #: observability hook the engine probes.
        self.last_demands: Dict[int, float] = {}
        #: injected by the engine when the run has an open world.
        self.timeline = None

    def initialize(self, world: World, rng: np.random.Generator) -> None:
        total = world.total_required_measurements
        if self.timeline is not None:
            total += self.timeline.streamed_required_total()
        self.schedule = RewardSchedule.from_budget(
            budget=self.budget,
            total_required_measurements=max(1, total),
            step=self.step,
            levels=self.levels,
        )

    def rewards(self, view: RoundView) -> Dict[int, float]:
        if self.schedule is None:
            raise RuntimeError("initialize() must be called before rewards()")
        tasks = view.active_tasks
        if not len(tasks):
            self.last_demands = {}
            return {}
        counts = view.neighbour_counts(tasks, self.neighbour_radius).tolist()
        crowd_instability = 0.0
        if self.timeline is not None:
            crowd_instability = 1.0 - self.timeline.mean_presence(view.round_no)
        alpha = self.smoothing
        w = self.uncertainty_weight
        prices: Dict[int, float] = {}
        demands: Dict[int, float] = {}
        for tid, count, remaining, required in zip(
            tasks.ids.tolist(), counts, tasks.remaining.tolist(),
            tasks.required.tolist(),
        ):
            previous = self._ema.get(tid)
            if previous is None:
                ema = float(count)
                volatility = 0.0
            else:
                ema = alpha * count + (1.0 - alpha) * previous
                jump = abs(float(count) - previous)
                volatility = (
                    alpha * jump + (1.0 - alpha) * self._volatility.get(tid, 0.0)
                )
            self._ema[tid] = ema
            self._volatility[tid] = volatility
            scarcity = 1.0 / (1.0 + ema)
            urgency = remaining / required
            relative_volatility = min(1.0, volatility / (1.0 + ema))
            uncertainty = min(
                1.0, 0.5 * relative_volatility + 0.5 * crowd_instability
            )
            score = (1.0 - w) * 0.5 * (scarcity + urgency) + w * uncertainty
            score = min(1.0, max(0.0, score))
            demands[tid] = score
            prices[tid] = self.schedule.reward_for_demand(score)
        self.last_demands = demands
        return self._require_all_tasks(prices, tasks)
