"""Shared per-round construction of the users' Eq. 1 instances.

Every user's instance in a round shares the same round-invariant parts:

- the published-task reward vector,
- the ``(n_tasks, n_tasks)`` task-to-task distance matrix,
- the task locations, the table's ``(n_tasks, 2)`` column.

:class:`RoundProblems` holds them and assembles the per-user parts over
user chunks with numpy, in two stages:

- *A front end* finds the chunk's candidate (user, task) pairs: every
  pair whose origin-to-task distance (:func:`_norm`, bit-identical in
  float64 to ``TaskSelectionProblem.build``'s rows) is within the
  user's budget plus the boundary tolerance.  The *dense* front end
  computes a ``(chunk, tasks)`` distance matrix and keeps the pairs
  under the threshold.  The *sparse* one (:class:`_ColumnWindows`)
  computes the same expressions only on the pairs inside each user's
  windows of one cell table: tasks ordered by (x-column, y-cell), a
  window's ends two integer gathers from its CSR ``starts``.  Each round
  picks whichever costs less, from its size and its window pair count
  (:data:`SPARSE_SHARE`); both give the same pairs in the same
  ``row * n_tasks + col`` order.
- *One back end* decides reach on those pairs: ``distance <= budget``,
  with any distance within the boundary tolerance re-decided on the
  float64 coordinates by :func:`~repro.geometry.point.redecide`, as
  ``build``'s pruning rule (``Point.distance_to``) decides it, and
  drops pairs whose user already contributed to the task.  The
  reachable pairs, as CSR rows over the users with a candidate, are the
  chunk's :class:`~repro.selection.problem.ProblemChunk`; no per-user
  matrix is built unless a selector asks for dense blocks
  (:meth:`~repro.selection.problem.ProblemChunk.blocks`).

Users with no eligible, reachable task are in no chunk row: their Eq. 1
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
chunk's arrays are dropped once its pairs are kept, so a city-scale
round never materialises the full user-by-task matrix.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.geometry.grid_index import expand_ranges
from repro.geometry.point import BOUNDARY_TOL, redecide
from repro.selection.problem import ProblemBlock, ProblemChunk, TaskSelectionProblem
from repro.simulation.perf import PerfStats
from repro.world.task import TaskTable

#: Per-chunk byte budget of the distance pipeline.  The chunk *element*
#: count is derived from this per dtype, so float32 chunks hold twice
#: the rows in the same footprint instead of silently halving it.
DEFAULT_CHUNK_BYTES = 16 << 20

#: The dense/sparse choice.  A round takes the sparse front end iff
#:
#:     window pairs + SPARSE_FIXED_PAIRS < SPARSE_SHARE * users * tasks,
#:
#: and builds no windows when the right side cannot exceed the fixed
#: part.  Fitted to the crossovers of the earlier binary-search windows
#: (a window pair cost about ten dense pairs, plus ~12k pairs of fixed
#: cost).  On the cell table, two sweeps over uniform float32 rounds
#: (2 vCPUs) found sparse never faster at 40k users x tasks and faster
#: below window shares of 0.01-0.16 (80k), 0.1-0.2 (200k), ~0.2 (500k)
#: and 0.16-0.28 (4M), so the rule still never picks sparse where dense
#: wins.  A city-50k round (6.6M pairs, a 0.017 share) goes sparse;
#: paper-2018, city-2k and task-stream-2k rounds (at most 120k pairs)
#: stay dense.
SPARSE_SHARE = 0.1
SPARSE_FIXED_PAIRS = 12_000

#: y-cells per column width in the sparse cell table: on a city-50k
#: round, 111k window pairs against 104k for exact y-ranges.
_Y_CELLS = 16

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


def _norm(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``sqrt(dx*dx + dy*dy)``, computed in place in ``dx``.

    diff, square, one add, sqrt: ``pairwise_distances``' arithmetic, its
    sum over the 2-wide axis being a single correctly-rounded add, so
    float64 results are bit-identical to it.  ``(a - b)^2`` is exact
    under negation, so either difference order gives the same bits.
    """
    np.multiply(dx, dx, out=dx)
    np.multiply(dy, dy, out=dy)
    np.add(dx, dy, out=dx)
    return np.sqrt(dx, out=dx)


def task_distance_matrix(locations: np.ndarray, dtype=np.float64) -> np.ndarray:
    """The ``(n, n)`` task-to-task distance matrix in ``dtype``, per
    coordinate (:func:`_norm`), so no ``(n, n, 2)`` temporary is
    materialised."""
    locations = locations.astype(dtype, copy=False)
    return _norm(
        locations[:, 0, None] - locations[None, :, 0],
        locations[:, 1, None] - locations[None, :, 1],
    )


class RoundProblems:
    """One round's shared selection-problem state, assembled per chunk.

    :meth:`iter_chunks` yields the users' instances one
    :class:`ProblemChunk` per assembly chunk; :meth:`iter_blocks` stacks
    them into equal-size :class:`ProblemBlock` s and
    :meth:`iter_problems` hands them out one by one.

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
        Blocks come chunk by chunk (:meth:`ProblemChunk.blocks`), by
        ascending candidate count within a chunk; each user with a
        candidate is in exactly one block.  Arguments as for
        :meth:`iter_chunks`.
        """
        for chunk in self.iter_chunks(user_ids, origins, budgets, costs):
            for rows, block in chunk.blocks():
                yield chunk.indices[rows], block

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
        for chunk in self.iter_chunks(user_ids, origins, budgets, costs):
            problems = [
                (index, block.problem(j))
                for rows, block in chunk.blocks()
                for j, index in enumerate(chunk.indices[rows].tolist())
            ]
            problems.sort(key=itemgetter(0))
            yield from problems

    def iter_chunks(
        self,
        user_ids: np.ndarray,
        origins: np.ndarray,
        budgets: np.ndarray,
        costs: np.ndarray,
    ) -> Iterator[ProblemChunk]:
        """Yield one :class:`ProblemChunk` per user chunk that has a user
        with a candidate.

        A chunk's rows are its users with an eligible, reachable task,
        ``indices`` their positions in ``user_ids`` (ascending across
        chunks).  Users with none are in no row — their Eq. 1 answer is
        the empty selection, which every selector returns for an empty
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
        # The sparse front end when its windows are affordable (see
        # SPARSE_SHARE); none are built when they cannot be.
        affordable = SPARSE_SHARE * n_users * n_tasks - SPARSE_FIXED_PAIRS
        windows = _ColumnWindows(task_xy, origins, budgets + tol) if affordable > 0 else None
        if windows is not None and (windows.hi - windows.lo).sum() >= affordable:
            windows = None
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
            # predicate (rare at any realistic geometry: the band is
            # micrometers wide in float64 and sub-meter in float32).
            band = np.flatnonzero(~(distances <= lower[start:stop][rows]))
            users = start + rows[band]
            redecide(reach, band, origins[users], task_xy[cols[band]], budgets[users])
            if len(excluded):
                keys = (rows + start) * n_tasks + cols
                at = np.searchsorted(excluded, keys)
                at[at == len(excluded)] = 0
                reach &= excluded[at] != keys
            if self._stats is not None:
                # One hit per user served, with or without a candidate.
                self._stats.problem_cache_hits += stop - start
            keep = np.flatnonzero(reach)
            if not len(keep):
                continue
            # CSR rows over the users with a candidate only: kept pairs
            # ascend by row, so each row's end is its last pair's + 1.
            kept = rows[keep]
            ends = np.flatnonzero(np.diff(kept, append=stop - start)) + 1
            offsets = np.zeros(len(ends) + 1, dtype=np.int64)
            offsets[1:] = ends
            indices = start + kept[ends - 1]
            chunk = ProblemChunk(
                indices=indices,
                offsets=offsets,
                columns=cols[keep],
                distances=distances[keep],
                max_distance=budgets[indices],
                cost_per_meter=costs[indices],
                origins=origins[indices],
                task_matrix=self.task_matrix,
                rewards=self.rewards,
                task_ids=self.tasks.ids,
                locations=task_xy,
            )
            # Drop the chunk's arrays before the caller solves it and
            # before the next chunk allocates its own, so one chunk's
            # pipeline is alive at a time.
            del rows, cols, distances, reach, keep, kept
            yield chunk

    def _dense_candidates(
        self, origins_w: np.ndarray, upper: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The dense front end: every (row, column, distance) pair of the
        chunk with ``distance <= upper[row]``, in row-major order, from
        a ``(chunk, tasks)`` matrix of :func:`_norm` distances."""
        locations = self._locations
        distances = _norm(
            origins_w[:, 0, None] - locations[None, :, 0],
            origins_w[:, 1, None] - locations[None, :, 1],
        )
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


class _ColumnWindows:
    """The sparse front end: each user's candidate tasks read from one
    cell table over the round's published tasks instead of a dense pass.

    Columns are as wide as the largest reach w (budget plus the boundary
    band) and cut into cells :data:`_Y_CELLS` times shorter; the tasks
    are ordered by ``(column, cell)`` with a CSR ``starts`` array.  A
    user at (x, y) with reach b gets one window per column that overlaps
    ``[x - b, x + b]`` (at most three, since ``2b <= 2w``): the cells
    that ``[y - b, y + b]`` overlaps, whose ends are two gathers from
    ``starts``.  Each step that decides a window (subtraction, division,
    floor, clipping) is monotone in the coordinates, so rounding can
    widen a window but never drop a task within b.  A reach tiny next
    to the tasks' extent coarsens the cells, as ``grid_index``'s center
    table does, so the table holds at most about four cells per user
    and task; an empty column pads each side for users off the table.

    Args:
        task_xy: the round's ``(n_tasks, 2)`` float64 task locations.
        origins: ``(n_users, 2)`` float64 user positions.
        reach: ``(n_users,)`` float64 window half-widths.
    """

    def __init__(self, task_xy: np.ndarray, origins: np.ndarray, reach: np.ndarray):
        def clipped(value, low, high):
            return np.clip(np.floor(value), low, high).astype(np.int64)

        (x0, y0), (x_span, y_span) = task_xy.min(axis=0), np.ptp(task_xy, axis=0)
        target = len(task_xy) + len(origins)
        width = max(float(reach.max()), float(x_span) / target)
        column = np.floor((task_xy[:, 0] - x0) / width).astype(np.int64)
        n_cols = int(column.max()) + 1
        height = max(width / _Y_CELLS, float(y_span) * n_cols / target)
        cell = np.floor((task_xy[:, 1] - y0) / height).astype(np.int64)
        ny = int(cell.max()) + 1
        # Columns 0 and n_cols + 1 are empty padding.
        keys = (column + 1) * ny + cell
        self.order = np.argsort(keys, kind="stable")
        self.starts = np.zeros((n_cols + 2) * ny + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys, minlength=len(self.starts) - 1), out=self.starts[1:])
        x, y = origins[:, 0], origins[:, 1]
        first = clipped((x - reach - x0) / width, -1, n_cols) + 1
        last = clipped((x + reach - x0) / width, -1, n_cols) + 1
        bottom = clipped((y - reach - y0) / height, 0, ny)
        top = clipped((y + reach - y0) / height + 1, 0, ny)
        # (users, slots): slot j is each user's window in column
        # first + j, or an empty one in padding column 0 past its last.
        self.slots = int((last - first).max()) + 1
        columns = first[:, None] + np.arange(self.slots)
        base = np.where(columns > last[:, None], 0, columns * ny)
        self.lo = self.starts[base + bottom[:, None]]
        self.hi = self.starts[base + top[:, None]]

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
        # User-major expansion: rows come out ascending.
        owner, positions = expand_ranges(
            self.lo[start:stop], self.hi[start:stop]
        )
        rows = owner // self.slots
        cols = self.order.take(positions)
        # The dense path's expressions, pair by pair, gathered by take,
        # several times faster than 2-D fancy indexing.
        distances = _norm(
            origins_w[:, 0].take(rows) - locations_w[:, 0].take(cols),
            origins_w[:, 1].take(rows) - locations_w[:, 1].take(cols),
        )
        inside = np.flatnonzero(distances <= upper.take(rows))
        rows, cols = rows.take(inside), cols.take(inside)
        # Rows ascend; only each row's few columns are out of order,
        # which a stable sort (timsort) fixes far faster than argsort.
        by_key = np.argsort(rows * len(locations_w) + cols, kind="stable")
        inside = inside.take(by_key)
        return rows.take(by_key), cols.take(by_key), distances.take(inside)
