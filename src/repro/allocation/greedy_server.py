"""A deadline-urgency global greedy allocator (the SAT reference point).

Each round the server plans with full information:

1. rank active tasks by urgency — fewest rounds to deadline first,
   largest unmet need first,
2. for each unmet measurement slot of each task (in that order), assign
   the *cheapest* eligible user: smallest marginal travel distance from
   the end of the user's already-planned path, subject to the user's
   travel budget, the one-contribution-per-user rule, and a rational-user
   check (the published reward must cover the marginal travel cost, or
   the user would refuse the assignment),
3. hand every user its planned visit order as a Selection.

This is not optimal (global assignment with routing is NP-hard too) and
it is deliberately simple — per-slot cheapest-user assignment is myopic
about routing.  Its value is as an informed reference: it never
over-assigns a task (the WST redundancy drawback cannot occur) and it
points spare capacity at the most deadline-critical work, so comparing
it against the incentive-driven WST modes separates what central
*control* buys from what demand-aware *pricing* buys.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.allocation.base import Coordinator
from repro.geometry.point import Point
from repro.selection.base import Selection
from repro.world.task import TaskTable
from repro.world.user import MobileUser


class _UserPlan:
    """Mutable per-round planning state for one user."""

    __slots__ = ("user", "position", "distance", "reward", "task_ids")

    def __init__(self, user: MobileUser, position: Point):
        self.user = user
        self.position = position
        self.distance = 0.0
        self.reward = 0.0
        self.task_ids: List[int] = []

    def marginal_distance(self, location: Point) -> float:
        return self.position.distance_to(location)

    def can_take(self, location: Point, price: float) -> bool:
        leg = self.marginal_distance(location)
        if self.distance + leg > self.user.max_travel_distance:
            return False
        # Rational-user check: the measurement must pay for its own leg.
        return price >= self.user.travel_cost(leg)

    def take(self, task_id: int, location: Point, price: float) -> None:
        leg = self.marginal_distance(location)
        self.distance += leg
        self.reward += price
        self.position = location
        self.task_ids.append(task_id)

    def selection(self) -> Selection:
        return Selection(
            task_ids=tuple(self.task_ids),
            distance=self.distance,
            reward=self.reward,
            cost=self.user.travel_cost(self.distance),
        )


class GreedyServerCoordinator(Coordinator):
    """Global greedy SAT allocation by deadline urgency (module docstring).

    Args:
        max_tasks_per_user: cap on assignments per user per round; keeps
            single users from being routed on marathon tours the WST
            selectors would never produce (comparability knob).
    """

    name = "sat-greedy"

    def __init__(self, max_tasks_per_user: int = 6):
        if max_tasks_per_user < 1:
            raise ValueError(
                f"max_tasks_per_user must be >= 1, got {max_tasks_per_user}"
            )
        self.max_tasks_per_user = max_tasks_per_user

    def assign(
        self,
        round_no: int,
        active_tasks: TaskTable,
        users: Sequence[MobileUser],
        positions: np.ndarray,
        prices: Dict[int, float],
    ) -> Dict[int, Selection]:
        plans = {
            user.user_id: _UserPlan(user, Point(x, y))
            for user, (x, y) in zip(users, positions.tolist())
        }
        tasks = active_tasks
        contributed = set(zip(
            tasks.ids[tasks.log[:, 0]].tolist(), tasks.log[:, 1].tolist()
        ))
        # By urgency: fewest rounds to deadline, then largest unmet need.
        for row in np.lexsort((-tasks.remaining, tasks.deadline)).tolist():
            task_id = int(tasks.ids[row])
            location = Point(*tasks.locations[row].tolist())
            price = prices[task_id]
            for _slot in range(int(tasks.remaining[row])):
                plan = self._cheapest_eligible(
                    task_id, location, contributed, plans, price
                )
                if plan is None:
                    break  # nobody can serve this task any more this round
                plan.take(task_id, location, price)
        return {
            user_id: plan.selection()
            for user_id, plan in plans.items()
            if plan.task_ids
        }

    def _cheapest_eligible(
        self,
        task_id: int,
        location: Point,
        contributed: Set[Tuple[int, int]],
        plans: Dict[int, _UserPlan],
        price: float,
    ) -> _UserPlan:
        best: _UserPlan = None
        best_leg = float("inf")
        for plan in plans.values():
            if len(plan.task_ids) >= self.max_tasks_per_user:
                continue
            if (task_id, plan.user.user_id) in contributed:
                continue
            if task_id in plan.task_ids:
                continue
            if not plan.can_take(location, price):
                continue
            leg = plan.marginal_distance(location)
            if leg < best_leg:
                best_leg = leg
                best = plan
        return best
