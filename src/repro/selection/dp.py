"""Exact dynamic-programming task selection (Section V-A of the paper).

The paper's recurrence (Eq. 12) fills the full ``2^m x (m+1)`` matrix
``dp[subset][last]`` = shortest origin-anchored path visiting ``subset``
and ending at ``last``.  We compute the same values *label-setting*
style — states are expanded layer by layer (by subset cardinality) and a
state is expanded only if its path length is within the travel budget;
any super-path of an infeasible path is infeasible (distances are
non-negative), so the pruning is lossless — and, since this is the
engine's hottest loop, each cardinality layer is expanded as one batch
of numpy arrays instead of per-state Python iteration.

Users choose independently against the same published prices, so the
kernel solves a whole :class:`~repro.selection.problem.ProblemBlock` of
equal-size instances in one layer-by-layer pass
(:meth:`DynamicProgrammingSelector.select_block`):

- a state is ``(row, mask)``, keyed ``row << k | mask``; a layer is the
  sorted int64 keys of one cardinality plus the ``(states, k)`` matrix
  ``dist`` of shortest path lengths per last task (``inf`` = state
  unreachable), whose finite entries — the layer's *paths* — are also
  kept as flat ``(row, last, length)`` arrays grouped by state;
- extension is one batched min-plus product: every path adds its
  length to its row's distances from ``last``, and a grouped ``min``
  per state gives the next-task lengths (work grows with paths x k,
  not states x k x k), masked by membership and by that row's budget;
- mask rewards are propagated incrementally (child mask reward = parent
  mask reward + the extending task's reward), so no popcounts and no
  per-mask bit loops ever run;
- each row keeps the first best state of the first layer that beats
  ``min_profit`` and every earlier layer, exactly as a one-instance
  scan would.

The answer is columnar (:class:`~repro.selection.base.SelectionColumns`):
the winners' visit orders, path lengths and reward sums are written
straight into a block's columns.  :meth:`DynamicProgrammingSelector.select`
is the kernel's one-row case, so a block answers bit for bit what
solving its rows one at a time answers.
A pass covers at most ``2^20 / 2^k`` rows (four full instances at the
default cap), which bounds the layers kept for the walk back.

A pure-Python formulation of the same recurrence is preserved as
:class:`~repro.selection.reference_dp.ReferenceDPSelector` and the
property tests hold the two (and the brute-force oracle) to identical
profits on randomized instances.

Instance-size cap: the exact DP is still exponential in the worst case,
so instances with more than ``max_exact_tasks`` reachable candidates are
first restricted to the ``max_exact_tasks`` candidates with the highest
direct-profit potential (reward minus the cost of walking straight to
the task).  Blocks that wide are answered row by row.  With the paper's
Section VI constants the cap almost never binds; tests cover both
regimes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.selection.base import Selection, SelectionColumns, Selector
from repro.selection.problem import ProblemBlock, TaskSelectionProblem

#: Masks one DP pass may cover (rows x 2^k): four full instances at the
#: default ``max_exact_tasks``.
_PASS_MASKS = 1 << 20


class DynamicProgrammingSelector(Selector):
    """Optimal Eq. 1 solver via budget-pruned, layer-vectorized bitmask DP.

    Args:
        max_exact_tasks: largest candidate count solved exactly; bigger
            instances are restricted to that many highest-potential
            candidates first (see module docstring).
        min_profit: selections must beat this profit to be worth leaving
            home; the paper's rational user uses 0.

    Attributes:
        total_states_expanded: finite ``(mask, last)`` states scored over
            the selector's lifetime (the DP work metric surfaced in
            :class:`~repro.simulation.perf.PerfStats`).
    """

    name = "dp"

    def __init__(self, max_exact_tasks: int = 18, min_profit: float = 0.0):
        if max_exact_tasks < 1:
            raise ValueError(f"max_exact_tasks must be >= 1, got {max_exact_tasks}")
        self.max_exact_tasks = max_exact_tasks
        self.min_profit = min_profit
        self.total_states_expanded = 0
        self._states_since_drain = 0

    def select(self, problem: TaskSelectionProblem) -> Selection:
        if problem.size == 0:
            return Selection.empty()
        problem = self._capped(problem)
        winners, orders, depth = self._best_orders(
            problem.distance_matrix[None],
            problem.rewards[None],
            np.array([problem.max_distance + 1e-9]),
            np.array([problem.cost_per_meter]),
        )
        if not winners.size:
            return Selection.empty()
        return problem.evaluate(orders[0, : depth[0] + 1].tolist())

    def select_block(self, block: ProblemBlock) -> SelectionColumns:
        """Every row of ``block`` in shared DP passes, bit-identical to :meth:`select`.

        Blocks wider than ``max_exact_tasks`` go row by row through the
        capped :meth:`select`.
        """
        n, k = len(block), block.size
        if k == 0:
            return SelectionColumns.empty(n)
        if k > self.max_exact_tasks:
            return super().select_block(block)
        columns = (
            np.zeros(n, dtype=np.int64),  # task count
            np.zeros((n, k), dtype=np.int64),  # task ids, visit order
            np.zeros(n),  # distance
            np.zeros(n),  # reward
        )
        # The layers kept for the walk back grow with the rows solved
        # together, so a pass takes at most _PASS_MASKS >> k rows; that
        # also keeps ``row << k | mask`` inside int64.
        step = max(1, _PASS_MASKS >> k)
        for start in range(0, n, step):
            part = slice(start, start + step)
            winners, orders, depth = self._best_orders(
                block.distances[part], block.rewards[part],
                block.max_distance[part] + 1e-9, block.cost_per_meter[part],
            )
            if winners.size:
                self._fill(columns, block, winners + start, orders, depth)
        counts, visits, distance, reward = columns
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        cost = np.zeros(n)
        np.multiply(distance, block.cost_per_meter, out=cost, where=counts > 0)
        return SelectionColumns(
            offsets, visits[np.arange(k) < counts[:, None]], distance, reward,
            cost,
        )

    @staticmethod
    def _fill(columns, block, rows, orders, depth) -> None:
        """Write winning ``rows``' columns: task counts, visit orders,
        and :meth:`TaskSelectionProblem.evaluate
        <repro.selection.problem.TaskSelectionProblem.evaluate>`'s
        arithmetic — legs cast to float64 and summed in visit order,
        the reward summed in visit order."""
        counts, visits, distance, reward = columns
        padding = np.arange(orders.shape[1]) > depth[:, None]
        nodes = orders + 1
        prev = np.zeros_like(nodes)
        prev[:, 1:] = nodes[:, :-1]
        legs = block.distances[rows[:, None], prev, nodes].astype(np.float64)
        legs[padding] = 0.0
        gained = block.rewards[rows[:, None], orders]
        gained[padding] = 0.0
        walked, total = np.zeros(len(rows)), np.zeros(len(rows))
        for column in range(orders.shape[1]):
            walked += legs[:, column]
            total += gained[:, column]
        counts[rows] = depth + 1
        visits[rows, : orders.shape[1]] = block.task_ids[rows[:, None], orders]
        distance[rows], reward[rows] = walked, total

    # -- observability -----------------------------------------------------

    def consume_states_expanded(self) -> int:
        """States expanded since the last call (drained by the engine
        into each round's :class:`~repro.simulation.perf.PerfStats`)."""
        count = self._states_since_drain
        self._states_since_drain = 0
        return count

    def _count_states(self, count: int) -> None:
        self.total_states_expanded += count
        self._states_since_drain += count

    # -- candidate capping -------------------------------------------------

    def _capped(self, problem: TaskSelectionProblem) -> TaskSelectionProblem:
        if problem.size <= self.max_exact_tasks:
            return problem
        direct = problem.distance_matrix[0, 1:]
        potential = problem.rewards - problem.cost_per_meter * direct
        keep = np.argsort(-potential)[: self.max_exact_tasks]
        return problem.restricted_to([int(i) for i in keep])

    # -- the DP itself -----------------------------------------------------------

    def _best_orders(
        self, distances, rewards, budget, cost
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The profit-optimal feasible visit order of every row that acts.

        Rows are instances: ``(n, k+1, k+1)`` distances, ``(n, k)``
        rewards, and ``(n,)`` budgets (slack included) and cost rates.
        Returns ``(winners, orders, depth)``: the rows that leave home
        (most tasks first), and row ``winners[w]``'s visit order as the
        first ``depth[w] + 1`` candidate indices of ``orders[w]``.

        ``dist[state, last]`` is the shortest origin-anchored path of the
        state's row visiting exactly its mask and ending at ``last``
        (the paper's ``dp[l][j]``).  Because the parent subset of
        ``(mask, last)`` is uniquely ``mask`` without ``last``'s bit,
        every finite entry comes from exactly one parent path: a layer
        is kept as its finite *paths* — ``(row, last, length)`` grouped
        by state, each group starting at ``starts`` — and extending it
        takes one ``k``-wide min-plus row per path, not per state and
        last task.
        """
        matrices = np.asarray(distances, dtype=np.float64)
        n, k = rewards.shape
        task = matrices[:, 1:, 1:]  # (n, k, k)
        bits = np.left_shift(np.int64(1), np.arange(k, dtype=np.int64))

        # Seed layer: single-task paths straight from each origin, keyed
        # in ascending (row, mask) order.  Each state is scored as it is
        # created, so no layer is ever re-scanned.
        direct = matrices[:, 0, 1:]
        rows, last = np.nonzero(direct <= budget[:, None])
        keys = (rows << k) | bits[last]
        lengths = direct[rows, last]
        starts = np.arange(keys.size)
        dist = np.empty((keys.size, k))
        dist.fill(np.inf)
        dist[starts, last] = lengths
        mask_rewards = rewards[rows, last]
        self._count_states(int(keys.size))

        best = _BestStates(n, self.min_profit)
        best.offer(0, rows, keys, last, mask_rewards - cost[rows] * lengths)
        layers = [(keys, dist)]

        # Chunk the (paths, k) min-plus temporary to ~16 MB (a state has
        # at most k paths) so dense layers stay memory-bounded.
        chunk = max(1, 2_000_000 // (k * k))

        for depth in range(1, k):
            # Batched extension: ext[s, nxt] = min over the paths of
            # state s of length + d(last, nxt) in the path's own row —
            # one min-plus product and one grouped min per chunk.
            size = keys.size
            ext = np.empty((size, k))
            for start in range(0, size, chunk):
                stop = min(start + chunk, size)
                lo = starts[start]
                hi = starts[stop] if stop < size else lengths.size
                summed = task[rows[lo:hi], last[lo:hi]]
                summed += lengths[lo:hi, None]
                ext[start:stop] = np.minimum.reduceat(
                    summed, starts[start:stop] - lo, axis=0
                )

            # Keep extensions within their row's budget that do not
            # revisit a task (<= budget also rejects inf).  A key's row
            # bits sit above bit k-1, so ``keys & bits`` tests the mask.
            state_rows = rows[starts]
            valid = ext <= budget[state_rows][:, None]
            valid &= (keys[:, None] & bits) == 0
            src, nxt = np.nonzero(valid)
            if src.size == 0:
                break
            lengths = ext[src, nxt]
            rows = state_rows[src]
            # Incremental reward propagation: child mask reward = parent
            # mask reward + the extending task's reward — no popcounts.
            path_rewards = mask_rewards[src] + rewards[rows, nxt]
            self._count_states(int(src.size))

            child = keys[src] | bits[nxt]
            best.offer(depth, rows, child, nxt, path_rewards - cost[rows] * lengths)

            # Group the new paths by state; the stable sort keeps each
            # state's paths in (parent, nxt) order.
            order = child.argsort(kind="stable")
            child = child[order]
            heads = np.empty(child.size, dtype=bool)
            heads[0] = True
            np.not_equal(child[1:], child[:-1], out=heads[1:])
            starts = heads.nonzero()[0]
            keys = child[starts]
            rows, last, lengths = rows[order], nxt[order], lengths[order]
            dist = np.empty((keys.size, k))
            dist.fill(np.inf)
            dist[heads.cumsum() - 1, last] = lengths
            # A mask's reward is its last path's sum (all of them equal
            # it, up to the order of the additions).
            tails = np.empty_like(heads)
            tails[:-1] = heads[1:]
            tails[-1] = True
            mask_rewards = path_rewards[order[tails]]
            layers.append((keys, dist))

        return self._reconstruct(best, layers, task, bits)

    @staticmethod
    def _reconstruct(best, layers, task, bits):
        """Walk every winner's parents from its best state back to the origin.

        No parent pointers are stored: at layer L the parent of
        ``(key, last)`` is ``(key without last, plast)`` for the
        ``plast`` minimizing ``dist[parent, plast] + d(plast, last)`` —
        the same expression the forward pass minimized, so the argmin
        recovers a shortest path exactly.
        """
        # Deepest path first, so the winners still walking back at any
        # layer are a prefix.
        winners = (best.depth >= 0).nonzero()[0]
        if winners.size > 1:
            winners = winners[np.argsort(-best.depth[winners], kind="stable")]
        depth = best.depth[winners]
        key, last = best.key[winners], best.last[winners]
        width = int(depth[0]) + 1 if winners.size else 0
        # walking[layer]: how many winners are at least that deep.
        walking = np.bincount(depth, minlength=width)[::-1].cumsum()[::-1].tolist()
        orders = np.zeros((winners.size, width), dtype=np.intp)
        orders[np.arange(winners.size), depth] = last
        for layer in range(width - 1, 0, -1):
            on = walking[layer]
            parent_keys, parent_dist = layers[layer - 1]
            parent, tail = key[:on], last[:on]
            parent ^= bits[tail]  # the state's mask holds ``tail``
            candidates = parent_dist[parent_keys.searchsorted(parent)]
            candidates += task[winners[:on], :, tail]
            candidates.argmin(axis=1, out=tail)
            orders[:on, layer - 1] = tail
        return winners, orders, depth


class _BestStates:
    """Each row's best state so far: depth, key and last task.

    A layer's first maximum per row (its new paths in ascending parent
    key order, then ``nxt``) replaces the row's best only if it is
    strictly greater than the earlier layers' best and ``min_profit``.
    """

    def __init__(self, n: int, min_profit: float):
        # empty + fill: np.full's Python wrapper is most of a one-row
        # select's set-up.
        self.profit = np.empty(n)
        self.profit.fill(min_profit)
        self.depth = np.empty(n, dtype=np.intp)
        self.depth.fill(-1)
        self.key = np.zeros(n, dtype=np.int64)
        self.last = np.zeros(n, dtype=np.intp)

    def offer(self, depth, rows, keys, last, profits) -> None:
        """Score one layer's paths (``rows`` ascending) against the bests."""
        beats = (profits > self.profit[rows]).nonzero()[0]
        if not beats.size:
            return
        if rows[beats[0]] == rows[beats[-1]]:
            first = beats[[profits[beats].argmax()]]
        else:
            # Each row's states by profit, descending; the sort is
            # stable, so the head of a row is its first maximum.
            beaten = rows[beats]
            heads = np.empty(beaten.size, dtype=bool)
            heads[0] = True
            np.not_equal(beaten[1:], beaten[:-1], out=heads[1:])
            first = beats[np.lexsort((-profits[beats], beaten))[heads]]
        winners = rows[first]
        self.profit[winners] = profits[first]
        self.depth[winners] = depth
        self.key[winners] = keys[first]
        self.last[winners] = last[first]
