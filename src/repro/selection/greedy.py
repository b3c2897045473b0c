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
:meth:`GreedySelector.select_chunk` runs the same steps for a whole
assembly chunk at once: one ragged array pass per step over the
candidate (user, task) pairs still live, whatever each user's
candidate count.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.selection.base import Selection, SelectionColumns, Selector
from repro.selection.problem import ProblemChunk, TaskSelectionProblem


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

    def select_chunk(self, chunk: ProblemChunk) -> SelectionColumns:
        """Every row of ``chunk`` in one ragged pass over its candidate
        pairs, bit-identical to :meth:`select`.

        Each step scores the live pairs and keeps :meth:`select`'s
        arithmetic element for element: a leg is the origin distance at
        step 0 and ``task_matrix[current, column]`` after, cast to
        float64; it fits unless ``traveled + leg > max_distance + 1e-9``;
        a step must gain more than ``min_step_profit``; and each row's
        first maximum (``np.maximum.reduceat`` over the row segments,
        then the first pair that hits it) is the first of equal gains in
        ascending column order.  The chosen pairs and every pair of a
        row that stopped leave the live set.  Distance and reward are
        running sums in visit order.
        """
        n = len(chunk)
        sizes = chunk.sizes
        rows = np.repeat(np.arange(n), sizes)
        columns = chunk.columns
        legs = chunk.distances.astype(np.float64)
        rewards, cost = chunk.rewards, chunk.cost_per_meter
        budget = chunk.max_distance + 1e-9
        traveled, reward = np.zeros(n), np.zeros(n)
        steps = np.zeros(n, dtype=np.intp)
        current = np.zeros(n, dtype=np.intp)
        lengths = sizes[sizes > 0]  # the live rows' segment lengths
        visits = []  # (rows, columns) chosen at each step
        while len(lengths):
            if visits:  # past step 0, legs start at the current task
                legs = chunk.task_matrix[current[rows], columns].astype(np.float64)
            gains = rewards[columns] - cost[rows] * legs
            fits = gains > self.min_step_profit
            fits &= ~(traveled[rows] + legs > budget[rows])
            # A fitting gain exceeds min_step_profit, so it is > -inf.
            scored = np.where(fits, gains, -np.inf)
            starts = np.zeros(len(lengths), dtype=np.intp)
            np.cumsum(lengths[:-1], out=starts[1:])
            best = np.maximum.reduceat(scored, starts)
            moving = best > -np.inf
            hits = np.flatnonzero(fits & (scored == np.repeat(best, lengths)))
            firsts = np.ones(len(hits), dtype=bool)
            np.not_equal(rows[hits[1:]], rows[hits[:-1]], out=firsts[1:])
            picked = hits[firsts]
            movers, chosen = rows[picked], columns[picked]
            traveled[movers] += legs[picked]
            reward[movers] += rewards[chosen]
            current[movers] = chosen
            steps[movers] = len(visits) + 1
            visits.append((movers, chosen))
            live = np.repeat(moving, lengths)
            live[picked] = False
            rows, columns = rows[live], columns[live]
            lengths = lengths[moving] - 1
            lengths = lengths[lengths > 0]

        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(steps, out=offsets[1:])
        ids = np.empty(int(offsets[-1]), dtype=np.int64)
        for step, (movers, chosen) in enumerate(visits):
            ids[offsets[movers] + step] = chunk.task_ids[chosen]
        # A row that never moved costs exactly 0.0, whatever its rate.
        spent = np.zeros(n)
        np.multiply(traveled, cost, out=spent, where=steps > 0)
        return SelectionColumns(offsets, ids, traveled, reward, spent)
