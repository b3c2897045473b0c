"""The steered-crowdsensing baseline (Kawajiri et al., UbiComp 2014).

The paper compares against the steered reward rule (its Eq. 13):

.. math::  R^k_{t_i} = R_c + \\mu \\, \\Delta Q(x)

where :math:`\\Delta Q(x) = Q(x+1) - Q(x)` is the *expected quality
improvement* from the (x+1)-th measurement of a task that already has x.
The original quality model is place-centric; we use the standard
diminishing-returns form

.. math::  Q(x) = 1 - e^{-\\delta x}
           \\;\\Rightarrow\\;
           \\Delta Q(x) = e^{-\\delta x} (1 - e^{-\\delta}),

which is strictly decreasing in x — exactly the property the paper's
discussion relies on ("the reward function of steered incentive is a
decreasing function which becomes smaller and smaller as more
measurements are received").

Parameterisation: the paper uses μ = 100, δ = 0.2, Rc = 5 (rewards in
[5, 25]).  Those constants are 2–50x the on-demand reward range
(0.5–2.5), so the comparison experiments default to the *scaled* variant
μ = 10, Rc = 0.5 (rewards in (0.5, 2.31]) which preserves the shape —
highest price first, monotone decay — while keeping the mechanisms on a
comparable budget.  Use :meth:`paper_scale` for the literal constants.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from repro.core.mechanisms.base import IncentiveMechanism, RoundView
from repro.world.generator import World


class SteeredMechanism(IncentiveMechanism):
    """Quality-improvement pricing per Eq. 13 of the paper.

    Args:
        base_reward: the additional reward :math:`R_c` every participant gets.
        quality_weight: the multiplier :math:`\\mu`.
        decay: the quality-saturation rate :math:`\\delta`.
    """

    name = "steered"

    def __init__(
        self,
        base_reward: float = 0.5,
        quality_weight: float = 10.0,
        decay: float = 0.2,
    ):
        if base_reward <= 0:
            raise ValueError(f"base_reward Rc must be positive, got {base_reward}")
        if quality_weight < 0:
            raise ValueError(f"quality_weight mu must be non-negative, got {quality_weight}")
        if decay <= 0:
            raise ValueError(f"decay delta must be positive, got {decay}")
        self.base_reward = base_reward
        self.quality_weight = quality_weight
        self.decay = decay

    @classmethod
    def paper_scale(cls) -> "SteeredMechanism":
        """The literal Section VI constants: μ=100, δ=0.2, Rc=5 (rewards ≈ [5, 25])."""
        return cls(base_reward=5.0, quality_weight=100.0, decay=0.2)

    # -- quality model -----------------------------------------------------

    def quality(self, measurements: int) -> float:
        """:math:`Q(x) = 1 - e^{-\\delta x}`, the saturating task quality."""
        if measurements < 0:
            raise ValueError(f"measurements must be non-negative, got {measurements}")
        return 1.0 - math.exp(-self.decay * measurements)

    def quality_improvement(self, measurements: int) -> float:
        """:math:`\\Delta Q(x) = Q(x+1) - Q(x)`, strictly decreasing in x."""
        return self.quality(measurements + 1) - self.quality(measurements)

    def reward_for(self, measurements: int) -> float:
        """Eq. 13: :math:`R_c + \\mu \\Delta Q(x)` for a task with x measurements."""
        return self.base_reward + self.quality_weight * self.quality_improvement(
            measurements
        )

    # -- mechanism interface ---------------------------------------------------

    def initialize(self, world: World, rng: np.random.Generator) -> None:
        # Stateless: prices derive entirely from task progress.
        return None

    def rewards(self, view: RoundView) -> Dict[int, float]:
        tasks = view.active_tasks
        prices = {
            task_id: self.reward_for(received)
            for task_id, received in zip(tasks.ids.tolist(), tasks.received.tolist())
        }
        return self._require_all_tasks(prices, view.active_tasks)
