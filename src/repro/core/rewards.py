"""The reward schedule: Eq. 7–9 of the paper.

Rewards are linear in the demand level:

.. math::  r^k_{t_i} = r_0 + \\lambda (DL^k_{t_i} - 1)        \\qquad (Eq. 7)

and the base reward :math:`r_0` is derived from the platform budget B so
that even if *every* measurement of *every* task were paid at the top
level, the payout stays within budget:

.. math::  \\sum_i \\varphi_i (r_0 + \\lambda (N - 1)) \\le B  \\qquad (Eq. 8)
.. math::  r_0 = B / \\sum_i \\varphi_i - \\lambda (N - 1)     \\qquad (Eq. 9)

With the paper's constants (B = 1000, 20 tasks x 20 measurements,
lambda = 0.5, N = 5) this gives r0 = 0.5 and rewards in {0.5, ..., 2.5}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.levels import DemandLevels
from repro.resilience.errors import ConfigError


@dataclass(frozen=True)
class RewardSchedule:
    """Maps demand levels to per-measurement rewards (Eq. 7).

    Args:
        base_reward: :math:`r_0`, the reward at demand level 1.
        step: :math:`\\lambda`, the per-level reward increment.
        levels: the demand-level partition (Table III).
    """

    base_reward: float
    step: float
    levels: DemandLevels

    def __post_init__(self) -> None:
        if self.base_reward <= 0:
            raise ConfigError(
                f"base reward r0 must be positive, got {self.base_reward}; "
                "with Eq. 9 this means the budget is too small for the "
                "chosen step and level count"
            )
        if self.step < 0:
            raise ValueError(f"step lambda must be non-negative, got {self.step}")

    @classmethod
    def from_budget(
        cls,
        budget: float,
        total_required_measurements: int,
        step: float = 0.5,
        levels: DemandLevels = None,
    ) -> "RewardSchedule":
        """Derive :math:`r_0` from the platform budget via Eq. 9.

        Args:
            budget: the platform's total reward budget B.
            total_required_measurements: :math:`\\sum_i \\varphi_i`.
            step: :math:`\\lambda`.
            levels: demand levels (default: the paper's N = 5).

        Raises:
            ConfigError: if the implied :math:`r_0` is non-positive, i.e.
                the budget cannot cover worst-case top-level payouts; the
                message names B, :math:`\\sum_i \\varphi_i`, λ, N and the
                budget Eq. 9 needs.
        """
        if levels is None:
            levels = DemandLevels(5)
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        if total_required_measurements < 1:
            raise ValueError(
                "total_required_measurements must be >= 1, "
                f"got {total_required_measurements}"
            )
        top_up = step * (levels.count - 1)
        base = budget / total_required_measurements - top_up
        if base <= 0:
            raise ConfigError(
                f"base reward r0 must be positive, got {base}: Eq. 9 with "
                f"budget B={budget:g}, {total_required_measurements} required "
                f"measurements (sum of phi), step lambda={step:g} and "
                f"N={levels.count} demand levels needs "
                f"B > {total_required_measurements * top_up:g}"
            )
        return cls(base_reward=base, step=step, levels=levels)

    # -- Eq. 7 ------------------------------------------------------------

    def reward_for_level(self, level: int) -> float:
        """:math:`r_0 + \\lambda (DL - 1)` for a 1-based demand level.

        Raises:
            ValueError: for a level outside the partition.
        """
        if not 1 <= level <= self.levels.count:
            raise ValueError(
                f"level must be in 1..{self.levels.count}, got {level}"
            )
        return self.base_reward + self.step * (level - 1)

    def reward_for_demand(self, normalized_demand: float) -> float:
        """Level-bucket a normalised demand and apply Eq. 7."""
        return self.reward_for_level(self.levels.level_of(normalized_demand))

    def rewards_for_demands(self, demands: Sequence[float]) -> List[float]:
        """Vector form of :meth:`reward_for_demand`."""
        return [self.reward_for_demand(d) for d in demands]

    def rewards_array(self, demands: "np.ndarray") -> "np.ndarray":
        """Vectorised :meth:`reward_for_demand`, bit-identical per element.

        Levels come from :meth:`DemandLevels.levels_array` and Eq. 7 is
        the same ``r0 + step * (level - 1)`` IEEE arithmetic elementwise.
        """
        import numpy as np

        levels = self.levels.levels_array(demands)
        return self.base_reward + self.step * (levels - 1).astype(float)

    # -- budget accounting ----------------------------------------------------

    @property
    def max_reward(self) -> float:
        """The top-level reward :math:`r_0 + \\lambda (N - 1)`."""
        return self.reward_for_level(self.levels.count)

    def worst_case_payout(self, total_required_measurements: int) -> float:
        """LHS of Eq. 8: every measurement paid at the maximum reward."""
        if total_required_measurements < 0:
            raise ValueError(
                "total_required_measurements must be non-negative, "
                f"got {total_required_measurements}"
            )
        return total_required_measurements * self.max_reward

    def respects_budget(self, budget: float, total_required_measurements: int) -> bool:
        """Whether Eq. 8 holds for the given budget (with float slack)."""
        return self.worst_case_payout(total_required_measurements) <= budget + 1e-9
