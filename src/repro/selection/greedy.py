"""The paper's greedy task selection (Section V-B).

"We use the profit provided by the candidate tasks as a criteria, which
is calculated as the reward of the task minus the cost of the movement
from the current location to the location of the task.  Thus, each
mobile user will greedily select the task which can mostly increase the
total profit at each step within the traveling time/distance budget
until no satisfied task can be found."

Complexity is :math:`O(m^2)` (Theorem 3): at most m steps, each scanning
at most m candidates.

Users choose independently against the same published prices, so
:meth:`GreedySelector.select_block` runs the same steps for a whole
block of equal-size instances at once, one masked ``argmax`` per step.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.selection.base import Selection, SelectionColumns, Selector
from repro.selection.problem import ProblemBlock, TaskSelectionProblem


class GreedySelector(Selector):
    """Marginal-profit greedy solver for Eq. 1.

    Args:
        min_step_profit: a step is "satisfying" only if it increases the
            total profit by more than this (the paper's rational user
            requires strictly positive marginal profit; 0 by default).
    """

    name = "greedy"

    def __init__(self, min_step_profit: float = 0.0):
        self.min_step_profit = min_step_profit

    def select(self, problem: TaskSelectionProblem) -> Selection:
        if problem.size == 0:
            return Selection.empty()
        matrix = problem.distance_matrix
        rewards = problem.rewards
        cost_rate = problem.cost_per_meter
        budget = problem.max_distance + 1e-9

        order: List[int] = []
        chosen = [False] * problem.size
        current = 0  # node index: 0 = origin, j+1 = candidate j
        traveled = 0.0

        while True:
            best_idx = -1
            best_gain = self.min_step_profit
            row = matrix[current]
            for j in range(problem.size):
                if chosen[j]:
                    continue
                leg = float(row[j + 1])
                if traveled + leg > budget:
                    continue
                gain = float(rewards[j]) - cost_rate * leg
                if gain > best_gain:
                    best_gain = gain
                    best_idx = j
            if best_idx < 0:
                break
            order.append(best_idx)
            chosen[best_idx] = True
            traveled += float(matrix[current, best_idx + 1])
            current = best_idx + 1

        if not order:
            return Selection.empty()
        return problem.evaluate(order)

    def select_block(self, block: ProblemBlock) -> SelectionColumns:
        """Every row of ``block`` at once, bit-identical to :meth:`select`.

        Each step takes one masked ``argmax`` over the rows still moving
        and keeps :meth:`select`'s arithmetic element for element: legs
        are cast to float64, a leg fits unless ``traveled + leg >
        max_distance + 1e-9``, a step must gain more than
        ``min_step_profit``, the first of equal gains wins, and distance
        and reward are running sums in visit order.  The answer's
        columns are those running sums and the visit orders themselves.
        """
        n, k = len(block), block.size
        if k == 0:
            return SelectionColumns.empty(n)
        distances = block.distances
        rewards = block.rewards
        cost = block.cost_per_meter
        budget = block.max_distance + 1e-9
        chosen = np.zeros((n, k), dtype=bool)
        order = np.zeros((n, k), dtype=np.intp)
        steps = np.zeros(n, dtype=np.intp)
        traveled = np.zeros(n)
        reward = np.zeros(n)
        current = np.zeros(n, dtype=np.intp)
        rows = np.arange(n)
        for step in range(k):
            legs = distances[rows, current[rows], 1:].astype(np.float64)
            gains = rewards[rows] - cost[rows, None] * legs
            fits = gains > self.min_step_profit
            fits &= ~chosen[rows]
            fits &= ~(traveled[rows, None] + legs > budget[rows, None])
            moving = fits.any(axis=1)
            if not moving.all():
                rows = rows[moving]
                if not len(rows):
                    break
                legs, gains, fits = legs[moving], gains[moving], fits[moving]
            best = np.where(fits, gains, -np.inf).argmax(axis=1)
            order[rows, step] = best
            chosen[rows, best] = True
            traveled[rows] += legs[np.arange(len(rows)), best]
            reward[rows] += rewards[rows, best]
            current[rows] = best + 1
            steps[rows] = step + 1

        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(steps, out=offsets[1:])
        ids = np.take_along_axis(block.task_ids, order, axis=1)
        # A row that never moved costs exactly 0.0, whatever its rate.
        spent = np.zeros(n)
        np.multiply(traveled, cost, out=spent, where=steps > 0)
        return SelectionColumns(
            offsets, ids[np.arange(k) < steps[:, None]], traveled, reward, spent
        )
