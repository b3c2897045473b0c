"""The mobile user (worker) of the crowdsensing system.

A user owns its movement parameters (walking speed, movement cost per
meter), a per-round time budget — the constraint side of the task
selection problem (Eq. 1) — and its immutable home.  Where the user
stands now is not kept here: :attr:`World.positions
<repro.world.generator.World.positions>` is the one record of live
positions, and the mobility policy moves it.  What a user earned is not
kept here either: the run ledger
(:class:`~repro.simulation.events.RunTotals`) folds every user's
per-round profit, and ``SimulationResult.user_profits`` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.geometry.point import Point


@dataclass
class MobileUser:
    """A mobile user :math:`u_i`.

    Args:
        user_id: unique non-negative integer id.
        home: where the user starts the run (and where stationary
            users return every round).
        speed: walking speed in m/s (paper default 2 m/s).
        cost_per_meter: movement cost in $/m (paper default 0.002 $/m).
        time_budget: per-round time budget :math:`B^k_{u_i}` in seconds.
        group: population-group name for heterogeneous crowds (None =
            the base population; see :mod:`repro.world.population`).
    """

    user_id: int
    home: Point
    speed: float
    cost_per_meter: float
    time_budget: float
    group: Optional[str] = None

    def __post_init__(self) -> None:
        if self.user_id < 0:
            raise ValueError(f"user_id must be non-negative, got {self.user_id}")
        if self.speed <= 0:
            raise ValueError(f"speed must be positive, got {self.speed}")
        if self.cost_per_meter < 0:
            raise ValueError(
                f"cost_per_meter must be non-negative, got {self.cost_per_meter}"
            )
        if self.time_budget < 0:
            raise ValueError(f"time_budget must be non-negative, got {self.time_budget}")

    # -- budget geometry -------------------------------------------------

    @property
    def max_travel_distance(self) -> float:
        """Farthest total distance reachable in one round: speed x budget."""
        return self.speed * self.time_budget

    def travel_time(self, distance: float) -> float:
        """Seconds needed to walk ``distance`` meters."""
        return distance / self.speed

    def travel_cost(self, distance: float) -> float:
        """Dollar cost of walking ``distance`` meters."""
        return distance * self.cost_per_meter

