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
kernel solves many instances in one layer-by-layer pass.
:meth:`DynamicProgrammingSelector.select_chunk` takes every
:class:`~repro.selection.problem.ProblemBlock` of an assembly chunk
(:meth:`~repro.selection.problem.ProblemChunk.blocks`) at once: the
rows, most candidates first, are cut into passes, and each row is
padded to its pass's width w with unreachable candidates (infinite
distance, no reward), for which no state is ever created.

- a state is ``(row, mask)``, keyed ``row << w | mask``; a layer is the
  sorted int64 keys of one cardinality plus the ``(states, w)`` matrix
  ``dist`` of shortest path lengths per last task (``inf`` = state
  unreachable), whose finite entries — the layer's *paths* — are also
  kept as flat ``(row, last, length)`` arrays grouped by state;
- extension is one batched min-plus product: every path adds its
  length to its row's distances from ``last``, and a grouped ``min``
  per state gives the next-task lengths (work grows with paths x w,
  not states x w x w), masked by membership and by that row's budget;
- mask rewards are propagated incrementally (child mask reward = parent
  mask reward + the extending task's reward), so no popcounts and no
  per-mask bit loops ever run;
- each row keeps the first best state of the first layer that beats
  ``min_profit`` and every earlier layer, exactly as a one-instance
  scan would.

The answer is columnar (:class:`~repro.selection.base.SelectionColumns`):
the winners' visit orders, path lengths and reward sums are written
straight into one table in chunk order, checked once.
:meth:`~DynamicProgrammingSelector.select_block` is the one-block case
and :meth:`~DynamicProgrammingSelector.select` the one-row case, so a
chunk answers bit for bit what solving its rows one at a time answers.
A pass of width w covers at most ``2^20 >> w`` rows (four full
instances at the default cap), which bounds the layers kept for the
walk back and keeps ``row << w | mask`` inside int64.

A pure-Python formulation of the same recurrence is preserved as
:class:`~repro.selection.reference_dp.ReferenceDPSelector` and the
property tests hold the two (and the brute-force oracle) to identical
profits on randomized instances.

Instance-size cap: the exact DP is still exponential in the worst case,
so instances with more than ``max_exact_tasks`` reachable candidates are
first restricted to the ``max_exact_tasks`` candidates with the highest
direct-profit potential (reward minus the cost of walking straight to
the task), kept in pool order — one array step over a wide block's
rows, which then share the width-``max_exact_tasks`` passes.  With the
paper's Section VI constants the cap almost never binds; tests cover
both regimes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.selection.base import Selection, SelectionColumns, Selector
from repro.selection.problem import ProblemBlock, ProblemChunk, TaskSelectionProblem

#: Masks one DP pass may cover (rows x 2^w): four full instances at the
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
        matrix, rewards = problem.distance_matrix[None], problem.rewards[None]
        cost = np.array([problem.cost_per_meter])
        keep = None
        if problem.size > self.max_exact_tasks:
            keep, matrix, rewards = self._capped(matrix, rewards, cost)
        winners, orders, depth = self._best_orders(
            matrix, rewards, np.array([problem.max_distance + 1e-9]), cost
        )
        if not winners.size:
            return Selection.empty()
        order = orders[0, : depth[0] + 1]
        if keep is not None:
            order = keep[0, order]
        return problem.evaluate(order.tolist())

    def select_block(self, block: ProblemBlock) -> SelectionColumns:
        """Every row of ``block`` in shared DP passes, bit-identical to :meth:`select`."""
        return self._solve([(np.arange(len(block)), block)], block.cost_per_meter)

    def select_chunk(self, chunk: ProblemChunk) -> SelectionColumns:
        """Every row of ``chunk`` (its :meth:`~ProblemChunk.blocks`) in as
        few padded passes as the ``2^20 >> w`` bound allows,
        bit-identical to :meth:`select`, as one table in chunk order."""
        return self._solve(chunk.blocks(), chunk.cost_per_meter)

    def _solve(self, parts, cost_per_meter) -> SelectionColumns:
        """One table of ``len(cost_per_meter)`` rows: each ``(rows,
        block)`` part's answers at its ``rows``, sit-outs elsewhere.

        Rows wider than ``max_exact_tasks`` are capped first; then the
        rows, most candidates first (parts in a stable order), are cut
        into passes whose width w is their first row's candidate count.
        The padded arrays are built per pass, so memory stays bounded
        by one pass at any w.  Each pass writes its winners straight
        into the table's columns, which are checked once.
        """
        n = len(cost_per_meter)
        groups = []  # (k, rows, block, distances, rewards, task ids), k > 0
        for rows, block in parts:
            if block.size == 0:
                continue
            distances, rewards, ids = block.distances, block.rewards, block.task_ids
            if block.size > self.max_exact_tasks:
                keep, distances, rewards = self._capped(
                    distances, rewards, block.cost_per_meter
                )
                ids = np.take_along_axis(ids, keep, axis=1)
            groups.append((rewards.shape[1], rows, block, distances, rewards, ids))
        groups.sort(key=lambda group: -group[0])
        widest = groups[0][0] if groups else 0
        columns = (
            np.zeros(n, dtype=np.int64),  # task count
            np.zeros((n, widest), dtype=np.int64),  # task ids, visit order
            np.zeros(n),  # distance
            np.zeros(n),  # reward
        )
        if groups:
            # Flat row i (most candidates first) is table row rows[i].
            rows = np.concatenate([group[1] for group in groups])
            bounds = np.zeros(len(groups) + 1, dtype=np.int64)
            np.cumsum([len(group[1]) for group in groups], out=bounds[1:])
            start = 0
            while start < len(rows):
                width = groups[int(bounds.searchsorted(start, side="right")) - 1][0]
                stop = min(len(rows), start + max(1, _PASS_MASKS >> width))
                self._solve_pass(columns, rows, groups, bounds, start, stop, width)
                start = stop
        counts, visits, distance, reward = columns
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        cost = np.zeros(n)
        np.multiply(distance, cost_per_meter, out=cost, where=counts > 0)
        return SelectionColumns(
            offsets, visits[np.arange(widest) < counts[:, None]], distance,
            reward, cost,
        )

    def _solve_pass(self, columns, rows, groups, bounds, start, stop, width):
        """Solve flat rows ``[start, stop)`` in one pass of ``width``.

        Each row is copied into float64 arrays padded to ``width`` with
        unreachable candidates: infinite distances (no seed is within a
        budget, and no extension to one is either) and zero rewards.  An
        infinite budget is clamped to the largest float, which keeps
        every finite path and still refuses the padding.
        """
        n = stop - start
        distances = np.empty((n, width + 1, width + 1))
        distances.fill(np.inf)
        rewards = np.zeros((n, width))
        ids = np.zeros((n, width), dtype=np.int64)
        budget, cost = np.empty(n), np.empty(n)
        for (k, _, block, block_distances, block_rewards, block_ids), first, last in zip(
            groups, bounds[:-1].tolist(), bounds[1:].tolist()
        ):
            lo, hi = max(first, start), min(last, stop)
            if lo >= hi:
                continue
            src, into = slice(lo - first, hi - first), slice(lo - start, hi - start)
            distances[into, : k + 1, : k + 1] = block_distances[src]
            rewards[into, :k] = block_rewards[src]
            ids[into, :k] = block_ids[src]
            budget[into] = block.max_distance[src] + 1e-9
            cost[into] = block.cost_per_meter[src]
        np.minimum(budget, np.finfo(np.float64).max, out=budget)
        winners, orders, depth = self._best_orders(distances, rewards, budget, cost)
        if winners.size:
            self._fill(
                columns, rows[start:stop][winners], distances, rewards, ids,
                winners, orders, depth,
            )

    @staticmethod
    def _fill(columns, rows, distances, rewards, ids, winners, orders, depth) -> None:
        """Write the pass's winners' columns at table ``rows``: task
        counts, visit orders, and :meth:`TaskSelectionProblem.evaluate
        <repro.selection.problem.TaskSelectionProblem.evaluate>`'s
        arithmetic — float64 legs summed in visit order, the reward
        summed in visit order."""
        counts, visits, distance, reward = columns
        padding = np.arange(orders.shape[1]) > depth[:, None]
        nodes = orders + 1
        prev = np.zeros_like(nodes)
        prev[:, 1:] = nodes[:, :-1]
        legs = distances[winners[:, None], prev, nodes]
        legs[padding] = 0.0
        gained = rewards[winners[:, None], orders]
        gained[padding] = 0.0
        walked, total = np.zeros(len(winners)), np.zeros(len(winners))
        for column in range(orders.shape[1]):
            walked += legs[:, column]
            total += gained[:, column]
        counts[rows] = depth + 1
        visits[rows, : orders.shape[1]] = ids[winners[:, None], orders]
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

    def _capped(
        self, distances, rewards, cost
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row restricted to its ``max_exact_tasks`` highest-potential
        candidates, in pool order: ``(keep, distances, rewards)`` with
        ``keep`` the kept candidate indices per row.

        The potential is a one-instance problem's ``rewards - cost *
        direct``, with the cost rate in the distances' dtype (as a
        Python float meets a float32 row), and the rows are ranked by
        the same default-kind ``argsort`` a single row gets.
        """
        direct = distances[:, 0, 1:]
        potential = rewards - cost.astype(direct.dtype)[:, None] * direct
        keep = np.argsort(-potential, axis=1)[:, : self.max_exact_tasks]
        keep.sort(axis=1)
        nodes = np.zeros((len(keep), keep.shape[1] + 1), dtype=np.intp)
        nodes[:, 1:] = keep + 1
        rows = np.arange(len(keep))[:, None, None]
        return (
            keep,
            distances[rows, nodes[:, :, None], nodes[:, None, :]],
            np.take_along_axis(rewards, keep, axis=1),
        )

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
