"""Shared per-round construction of the users' Eq. 1 instances.

Every user's instance in a round shares the same round-invariant parts:

- the published-task reward vector and :class:`CandidateTask` records,
- the ``(n_tasks, n_tasks)`` task-to-task distance matrix,
- the task locations, the table's ``(n_tasks, 2)`` column.

:class:`RoundProblems` holds them and assembles the per-user parts over
user chunks with numpy, in two stages:

- *A front end* finds the chunk's candidate (user, task) pairs: every
  pair whose origin-to-task distance (diff, square, one add, sqrt —
  add/multiply/sqrt are correctly rounded, so float64 values are
  bit-identical to
  :meth:`~repro.selection.problem.TaskSelectionProblem.build`'s
  :func:`~repro.geometry.distances.pairwise_distances` rows) is within
  the user's budget plus the boundary tolerance.  The *dense* front end
  computes a ``(chunk, tasks)`` distance matrix and keeps the pairs
  under the threshold.  The *sparse* one (:class:`_ColumnWindows`)
  computes the same expressions only on the pairs inside each user's
  column windows: tasks sorted by (x-column, y), one ``searchsorted``
  y-range per column the user's budget overlaps.  Each round picks
  whichever costs less, from its size and its window pair count
  (:data:`SPARSE_SHARE`); both give the same pairs in the same
  ``row * n_tasks + col`` order.
- *One back end* decides reach on those pairs: ``distance <= budget``,
  with any distance within the boundary tolerance re-decided by
  ``math.hypot`` on the float64 coordinates, exactly as ``build``'s
  pruning rule (``Point.distance_to``) does — the sqrt pipeline and
  hypot can disagree only in the last ulp, far inside the band — and
  drops pairs whose user already contributed to the task.  The
  reachable pairs, as CSR rows, become problems only for users with a
  candidate, in blocks of equal candidate count k: one fancy-index
  gather fills each :class:`~repro.selection.problem.ProblemBlock`'s
  ``(n_k, k+1, k+1)`` distances.

Users with no eligible, reachable task are in no block: their Eq. 1
answer is the empty selection, which every selector returns for an empty
problem (pinned by the solver contract tests).

**Precision.** The chunk pipeline runs in a configurable dtype
(``SimulationConfig.distance_dtype``).  float64 (the default) is
bit-identical to ``TaskSelectionProblem.build``.  float32 halves the
distance-matrix memory traffic — the right trade at city scale — and
widens the reachability recheck band to :func:`float32_boundary_tol` so
every decision the reduced precision could flip is re-decided in
float64: candidate sets are identical to the float64 pipeline's (pinned
by tests), only the low-order bits of the matrix entries differ.

**Memory.** User chunks are sized by one byte budget (~16 MB of dense
distance matrix per chunk in either dtype — the row count adapts to
the dtype's width), on either front end: the sparse one holds only the
chunk's window pairs, at most the dense matrix's element count.  A
chunk's arrays are dropped once its blocks are built, so a city-scale
round never materialises the full user-by-task matrix.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.geometry.grid_index import expand_ranges
from repro.geometry.point import Point
from repro.selection.base import CandidateTask
from repro.selection.problem import ProblemBlock, TaskSelectionProblem
from repro.simulation.perf import PerfStats
from repro.world.task import TaskTable

#: Distances this close to a user's travel budget are re-decided with
#: ``math.hypot`` (``Point.distance_to``'s arithmetic) so the
#: sqrt-pipeline/``math.hypot`` last-ulp disagreement can never flip a
#: reachability decision.
BOUNDARY_TOL = 1e-6

#: Per-chunk byte budget of the distance pipeline.  The chunk *element*
#: count is derived from this per dtype, so float32 chunks hold twice
#: the rows in the same footprint instead of silently halving it.
DEFAULT_CHUNK_BYTES = 16 << 20

#: The dense/sparse choice.  A round takes the sparse front end iff
#:
#:     window pairs + SPARSE_FIXED_PAIRS < SPARSE_SHARE * users * tasks,
#:
#: and builds no windows when the right side cannot exceed the fixed
#: part.  Both constants are fitted to the measured crossovers of the
#: two front ends on uniform synthetic float32 rounds (medians of 15,
#: 2 vCPUs): the window share below which sparse was faster was never
#: (40k users x tasks), none worth having (80k), 0.04 (200k), 0.07
#: (500k) and 0.15 (4M).  So a window pair costs about ten dense pairs,
#: plus a fixed cost worth ~12k pairs.  At 4M pairs the rule stays dense
#: from a ~0.1 share, where sparse still won by 2% at 0.14.  A city-50k
#: round (6.6M pairs, a 0.016 share) goes sparse; paper-2018, city-2k
#: and task-stream-2k rounds (at most 120k pairs) stay dense.
SPARSE_SHARE = 0.1
SPARSE_FIXED_PAIRS = 12_000

#: Safety factor (in float32 ulps of the dominant magnitude) bounding
#: how far a float32 distance can sit from its float64 value: coordinate
#: rounding contributes ~2 ulps of the coordinate magnitude, the
#: diff/square/sum pipeline a few more, and sqrt halves relative error.
#: 32 ulps covers the worst case with an order of magnitude to spare.
_F32_GUARD = 32.0 * float(np.finfo(np.float32).eps)


def float32_boundary_tol(coordinate_scale: float, budget_scale: float) -> float:
    """The reachability recheck band for the float32 pipeline (meters).

    Any |d32 - budget| inside this band is re-decided in float64; the
    band bounds |d32 - d64| + |budget32 - budget64|, so a float32
    reach decision outside it always agrees with the float64 one.
    """
    return BOUNDARY_TOL + _F32_GUARD * (
        abs(coordinate_scale) + abs(budget_scale)
    )


def task_distance_matrix(locations: np.ndarray, dtype=np.float64) -> np.ndarray:
    """The ``(n, n)`` task-to-task distance matrix in ``dtype``.

    Same arithmetic as ``geometry.distances.pairwise_distances`` — diff,
    square, one add, sqrt — written per coordinate and in place so no
    ``(n, n, 2)`` temporary is materialised.  The sum over the 2-wide
    axis is a single correctly-rounded add either way, so the float64
    entries are bit-identical to the stacked pipeline.
    """
    locations = locations.astype(dtype, copy=False)
    dx = locations[:, 0, None] - locations[None, :, 0]
    dy = locations[:, 1, None] - locations[None, :, 1]
    np.multiply(dx, dx, out=dx)
    np.multiply(dy, dy, out=dy)
    np.add(dx, dy, out=dx)
    return np.sqrt(dx, out=dx)


class RoundProblems:
    """One round's shared selection-problem state, assembled per chunk.

    :meth:`iter_blocks` stacks the users' instances into equal-size
    :class:`ProblemBlock` s (:meth:`iter_chunks` groups them by
    assembly chunk); :meth:`iter_problems` hands the same instances out
    one by one.

    Args:
        tasks: the round's published tasks, a :class:`TaskTable` slice
            in world order.
        prices: the mechanism's price per task id (every task priced —
            the engine validates before constructing this state).
        stats: optional :class:`PerfStats` receiving one cache miss for
            the shared construction and one hit per user served.
        dtype: the distance pipeline precision — ``np.float64``
            (bit-identical to ``TaskSelectionProblem.build``) or
            ``np.float32`` (reachability boundary re-decided in float64).
        chunk_bytes: per-chunk byte budget of the distance pipeline
            (default ~16 MB regardless of dtype); the per-chunk element
            count, :attr:`chunk_elements`, derives from it and the dtype.
    """

    def __init__(
        self,
        tasks: TaskTable,
        prices: Dict[int, float],
        stats: Optional[PerfStats] = None,
        dtype=np.float64,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ):
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(
                f"dtype must be float32 or float64, got {dtype}"
            )
        self.dtype = dtype
        if chunk_bytes < dtype.itemsize:
            raise ValueError(
                f"chunk_bytes must hold at least one {dtype} element, "
                f"got {chunk_bytes}"
            )
        self.chunk_elements = int(chunk_bytes // dtype.itemsize)
        self.tasks = tasks
        self._stats = stats
        # Task locations in the working dtype (float32 mode casts once).
        self._locations = tasks.locations.astype(dtype, copy=False)
        self.rewards = np.asarray(
            [prices[task_id] for task_id in tasks.ids.tolist()], dtype=float
        )
        self.task_matrix = task_distance_matrix(tasks.locations, dtype)
        self.candidates = tuple(
            CandidateTask(task_id=task_id, location=Point(x, y), reward=reward)
            for task_id, (x, y), reward in zip(
                tasks.ids.tolist(), tasks.locations.tolist(), self.rewards.tolist()
            )
        )
        if stats is not None:
            stats.problem_cache_misses += 1

    def iter_blocks(
        self,
        user_ids: np.ndarray,
        origins: np.ndarray,
        budgets: np.ndarray,
        costs: np.ndarray,
    ) -> Iterator[Tuple[np.ndarray, ProblemBlock]]:
        """Yield ``(indices, block)`` covering each user with a candidate.

        ``indices`` are the block rows' positions in ``user_ids``.
        Blocks come chunk by chunk, by ascending candidate count within
        a chunk; each user is in exactly one block.  Users with no
        eligible, reachable task are in none — their Eq. 1 answer is the
        empty selection, which every selector returns for an empty
        problem (pinned by the solver contract tests), so callers skip
        them.

        Args:
            user_ids: ``(n,)`` int64 ids of the users to build problems
                for (they decide contributor exclusion).
            origins: ``(n, 2)`` float64 positions aligned with
                ``user_ids`` (rows of :attr:`World.positions`).
            budgets: ``(n,)`` float64 travel budgets.
            costs: ``(n,)`` float64 cost rates.
        """
        for blocks in self.iter_chunks(user_ids, origins, budgets, costs):
            yield from blocks

    def iter_problems(
        self,
        user_ids: np.ndarray,
        origins: np.ndarray,
        budgets: np.ndarray,
        costs: np.ndarray,
    ) -> Iterator[Tuple[int, TaskSelectionProblem]]:
        """Yield ``(index, problem)`` for each user with a candidate.

        The rows of :meth:`iter_blocks` one by one, with ``index`` the
        user's position in ``user_ids``; indices ascend.
        """
        for blocks in self.iter_chunks(user_ids, origins, budgets, costs):
            problems = [
                (index, block.problem(j))
                for indices, block in blocks
                for j, index in enumerate(indices.tolist())
            ]
            problems.sort(key=itemgetter(0))
            yield from problems

    def iter_chunks(
        self,
        user_ids: np.ndarray,
        origins: np.ndarray,
        budgets: np.ndarray,
        costs: np.ndarray,
    ) -> Iterator[List[Tuple[np.ndarray, ProblemBlock]]]:
        """One list of :meth:`iter_blocks`' ``(indices, block)`` pairs per
        user chunk, so a selector can solve a chunk's blocks together."""
        n_tasks, n_users = len(self.tasks), len(user_ids)
        if n_tasks == 0 or n_users == 0:
            return
        if self.dtype == np.float32:
            origins_w = origins.astype(np.float32)
            budgets_w = budgets.astype(np.float32)
            # The recheck band must cover the float32 representation
            # error of every quantity feeding a reach decision.
            coordinate_scale = max(
                float(np.abs(self._locations).max(initial=0.0)),
                float(np.abs(origins_w).max(initial=0.0)),
            )
            budget_scale = float(np.abs(budgets_w).max(initial=0.0))
            tol = float32_boundary_tol(coordinate_scale, budget_scale)
        else:
            origins_w, budgets_w, tol = origins, budgets, BOUNDARY_TOL
        # A pair is a candidate iff d <= budget + tol; a candidate is
        # outside the boundary band iff also d <= budget - tol.
        upper, lower = budgets_w + tol, budgets_w - tol
        excluded = self._excluded_keys(user_ids)
        task_xy = self.tasks.locations
        windows = _ColumnWindows.if_sparse(task_xy, origins, budgets + tol)
        chunk_size = max(1, self.chunk_elements // n_tasks)
        for start in range(0, n_users, chunk_size):
            stop = min(start + chunk_size, n_users)
            if windows is None:
                rows, cols, distances = self._dense_candidates(
                    origins_w[start:stop], upper[start:stop]
                )
            else:
                rows, cols, distances = windows.candidates(
                    start, stop, origins_w[start:stop], self._locations,
                    upper[start:stop],
                )
            reach = distances <= budgets_w[start:stop][rows]
            # Boundary-band decisions re-run the reference float64
            # predicate, one pair at a time (rare at any realistic
            # geometry — the band is micrometers wide in float64 and
            # sub-meter in float32).
            band = np.flatnonzero(~(distances <= lower[start:stop][rows]))
            for j, row, col in zip(
                band.tolist(), rows[band].tolist(), cols[band].tolist()
            ):
                ox, oy = origins[start + row].tolist()
                tx, ty = task_xy[col].tolist()
                reach[j] = math.hypot(ox - tx, oy - ty) <= budgets[start + row]
            if len(excluded):
                keys = (rows + start) * n_tasks + cols
                at = np.searchsorted(excluded, keys)
                at[at == len(excluded)] = 0
                reach &= excluded[at] != keys
            keep = np.flatnonzero(reach)
            offsets = np.zeros(stop - start + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(rows[keep], minlength=stop - start),
                out=offsets[1:],
            )
            blocks = self._gather_blocks(
                origins, start, offsets, cols[keep], distances[keep],
                budgets, costs,
            )
            # Drop the chunk's arrays before the caller solves its blocks
            # and before the next chunk allocates its own, so one chunk's
            # pipeline is alive at a time.
            del rows, cols, distances, reach, keep
            yield blocks

    def _dense_candidates(
        self, origins_w: np.ndarray, upper: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The dense front end: every (row, column, distance) pair of the
        chunk with ``distance <= upper[row]``, in row-major order.

        diff, square, one add, sqrt — written per coordinate so no
        ``(chunk, tasks, 2)`` temporary is materialised.  dx*dx+dy*dy is
        pairwise_distances' sum over the 2-wide axis (a single
        correctly-rounded add either way), and (a-b)^2 is exact under
        negation, so float64 origin-minus-task equals the reference
        task-minus-origin rows bitwise.
        """
        locations = self._locations
        dx = origins_w[:, 0, None] - locations[None, :, 0]
        dy = origins_w[:, 1, None] - locations[None, :, 1]
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=dx)
        del dy
        distances = np.sqrt(dx, out=dx)
        # Flat indices split by divmod: row-major, as np.nonzero gives
        # them, at a fraction of a 2-D nonzero's cost.
        flat = np.flatnonzero(distances <= upper[:, None])
        rows, cols = np.divmod(flat, distances.shape[1])
        return rows, cols, distances.ravel()[flat]

    def _excluded_keys(self, user_ids: np.ndarray) -> np.ndarray:
        """Every (user position, task column) pair whose user already
        contributed to the task, as ascending ``row * n_tasks + col``
        keys, for contributor exclusion.

        Each contributor id is looked up in ``user_ids`` by one
        ``searchsorted`` (through a sorting permutation when the ids are
        not ascending); ids of users not in ``user_ids`` are dropped.
        """
        cols, ids = self.tasks.log[:, 0], self.tasks.log[:, 1]
        order = (
            None if (user_ids[1:] > user_ids[:-1]).all()
            else np.argsort(user_ids, kind="stable")
        )
        at = np.searchsorted(user_ids, ids, sorter=order)
        at[at == len(user_ids)] = 0
        rows = at if order is None else order[at]
        found = user_ids[rows] == ids
        return np.sort(rows[found] * len(self.tasks) + cols[found])

    def _gather_blocks(
        self,
        origins: np.ndarray,
        start: int,
        offsets: np.ndarray,
        cols: np.ndarray,
        distances: np.ndarray,
        budgets: np.ndarray,
        costs: np.ndarray,
    ) -> List[Tuple[np.ndarray, ProblemBlock]]:
        """One chunk's problem blocks, one per candidate count k.

        The chunk's reachable pairs arrive as CSR: row r's candidates
        are ``cols[offsets[r]:offsets[r+1]]`` (ascending task columns)
        with their origin distances alongside.  Each block's
        ``(n_k, k+1, k+1)`` distance array is filled by one fancy-index
        gather: the origin row from the pair distances, the task block
        sliced from the shared matrix.
        """
        counts = np.diff(offsets)
        if self._stats is not None:
            # One hit per user served, with or without a candidate.
            self._stats.problem_cache_hits += len(counts)
        blocks: List[Tuple[np.ndarray, ProblemBlock]] = []
        for k in np.unique(counts[counts > 0]).tolist():
            group = np.flatnonzero(counts == k)
            at = offsets[group][:, None] + np.arange(k)
            picked = cols[at]
            origin_rows = distances[at]
            block = np.empty((len(group), k + 1, k + 1), dtype=self.dtype)
            block[:, 0, 0] = 0.0
            block[:, 0, 1:] = origin_rows
            block[:, 1:, 0] = origin_rows
            block[:, 1:, 1:] = self.task_matrix[
                picked[:, :, None], picked[:, None, :]
            ]
            indices = group + start
            blocks.append((indices, ProblemBlock(
                distances=block,
                rewards=self.rewards[picked],
                task_ids=self.tasks.ids[picked],
                max_distance=budgets[indices],
                cost_per_meter=costs[indices],
                origins=origins[indices],
                columns=picked,
                candidates=self.candidates,
            )))
        return blocks


class _ColumnWindows:
    """The sparse front end: each user's candidate tasks found through
    per-column ``searchsorted`` windows instead of a dense pass.

    The published tasks are cut into vertical columns of width ``w``,
    the largest reach (budget plus the boundary band), and sorted by
    one float64 key, ``column * stride + (y - y0)``, with ``stride`` more
    than the tasks' y-span, so each column's tasks are contiguous and
    y-ordered.  A user at (x, y) with reach b gets one key range
    ``[y - b, y + b]`` per column that overlaps ``[x - b, x + b]`` (at
    most three, since ``2b <= 2w``): two ``searchsorted`` calls for all
    users.  Every task within b of the user lies in one of those
    ranges: each operation that decides a range (subtraction,
    division, floor, clipping, the rounded key, ``searchsorted``) is
    monotone in the coordinates, so rounding can widen a window but
    never drop a task from it.

    Args:
        task_xy: the round's ``(n_tasks, 2)`` float64 task locations.
        origins: ``(n_users, 2)`` float64 user positions.
        reach: ``(n_users,)`` float64 window half-widths (budget plus
            the boundary band).
    """

    def __init__(self, task_xy: np.ndarray, origins: np.ndarray, reach: np.ndarray):
        x0, y0 = task_xy.min(axis=0)
        y_span = float(task_xy[:, 1].max() - y0)
        width = float(reach.max())
        stride = 2.0 * y_span + 1.0
        keys = (
            np.floor((task_xy[:, 0] - x0) / width) * stride
            + (task_xy[:, 1] - y0)
        )
        self.order = np.argsort(keys)
        keys = keys[self.order]
        x, y = origins[:, 0], origins[:, 1]
        first = np.floor((x - reach - x0) / width)
        last = np.floor((x + reach - x0) / width)
        self.slots = int((last - first).max()) + 1
        low = np.maximum(y - reach - y0, 0.0)
        high = np.minimum(y + reach - y0, y_span)
        # Binary searches run several times faster on ascending needles,
        # so the users are searched in the order of their first window.
        by_window = np.argsort(first * stride + low)
        columns = first[by_window] + np.arange(self.slots)[:, None]
        lo = np.searchsorted(keys, columns * stride + low[by_window])
        hi = np.searchsorted(keys, columns * stride + high[by_window], side="right")
        hi = np.where(columns > last[by_window], lo, np.maximum(hi, lo))
        # Back to user order: (slots, users), row j holding every
        # user's slot j.
        rank = np.empty_like(by_window)
        rank[by_window] = np.arange(len(by_window))
        self.lo = lo.take(rank, axis=1)
        self.hi = hi.take(rank, axis=1)

    @classmethod
    def if_sparse(
        cls, task_xy: np.ndarray, origins: np.ndarray, reach: np.ndarray
    ) -> Optional["_ColumnWindows"]:
        """The windows, or None when the dense pass is the cheaper one
        (see :data:`SPARSE_SHARE`)."""
        affordable = SPARSE_SHARE * len(origins) * len(task_xy) - SPARSE_FIXED_PAIRS
        if affordable <= 0:
            return None
        windows = cls(task_xy, origins, reach)
        if (windows.hi - windows.lo).sum() >= affordable:
            return None
        return windows

    def candidates(
        self,
        start: int,
        stop: int,
        origins_w: np.ndarray,
        locations_w: np.ndarray,
        upper: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Users ``start:stop``'s (row, column, distance) pairs with
        ``distance <= upper[row]``, by ascending ``row * n_tasks + col``
        — the dense front end's output for the same chunk, computed
        from the window pairs alone.

        ``origins_w``, ``locations_w`` and ``upper`` are in the working
        dtype, ``origins_w`` and ``upper`` sliced to the chunk.
        """
        owner, positions = expand_ranges(
            self.lo[:, start:stop], self.hi[:, start:stop]
        )
        rows = owner % (stop - start)
        cols = self.order[positions]
        # The dense path's expressions, pair by pair (add, multiply and
        # sqrt are correctly rounded, so the values are bit-identical).
        dx = origins_w[rows, 0] - locations_w[cols, 0]
        dy = origins_w[rows, 1] - locations_w[cols, 1]
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=dx)
        distances = np.sqrt(dx, out=dx)
        inside = np.flatnonzero(distances <= upper[rows])
        n_tasks = len(locations_w)
        keys = rows[inside] * n_tasks + cols[inside]
        by_key = np.argsort(keys)
        rows, cols = np.divmod(keys[by_key], n_tasks)
        return rows, cols, distances[inside[by_key]]
