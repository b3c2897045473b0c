"""The batched engine path: vectorised, sparse rounds for large worlds.

The scalar engine's per-round cost at scale is dominated by problem
construction: :meth:`RoundProblems.problem_for` runs an O(tasks) python
loop (``math.hypot`` + a set lookup per task) for every user — ~10M
interpreter iterations per round at 10k users x 1k tasks.  This module
replaces that with chunked numpy:

- one ``(chunk, tasks)`` origin-to-task distance matrix per user chunk,
  computed with the exact elementwise pipeline ``RoundProblems`` uses
  (diff, square, sum, sqrt — add/multiply/sqrt are correctly rounded, so
  the float64 entries are bit-identical to the per-user rows),
- a boolean reachability mask against each user's travel budget, with
  any distance within the boundary tolerance of the budget re-decided by
  ``Point.distance_to`` (``math.hypot``) exactly as the scalar pruning
  rule does — the sqrt pipeline and hypot can disagree only in the last
  ulp, far inside the tolerance band,
- problems only for users with a candidate, assembled per chunk in
  blocks of equal candidate count k: one fancy-index gather fills each
  :class:`~repro.selection.problem.ProblemBlock`'s ``(n_k, k+1, k+1)``
  distances, and the selector solves the block in one
  ``select_block`` call (:func:`solve_blocks`) — the greedy as array
  steps over all its rows, other selectors row by row.

**The sparse round.**  At city scale most users do nothing in a given
round, so per-user Python work is spent only on the users who act:

- *problem* — only participants with at least one eligible, reachable
  task are in a block (:meth:`BatchedRoundProblems.iter_blocks` covers
  them alone).  Everyone else keeps the shared
  :meth:`Selection.empty` without a selector call, which is what every
  selector answers for an empty problem (pinned by the solver contract
  tests).
- *upload* — the engine's upload loop skips empty selections; the users
  who walk still upload one by one in arrival order, so which uploads a
  full task rejects is unchanged.
- *mobility* — ``mobility.next_position`` runs for users who walked and
  for idle users whose policy's
  :meth:`~repro.world.mobility.MobilityPolicy.stays_put_when_idle` is
  false, in arrival order.  A policy answers true only when the idle
  call would return ``user.location`` itself and draw nothing, so the
  skipped calls are exactly the no-ops.
- *records* — the round's user records are a columnar
  :class:`~repro.simulation.events.UserRoundRecords` (ids, selection
  references, rewards), materialised per record only on access.

The upload and move path lives in :class:`SimulationEngine` and is
shared by both engines; this module only adds the array upkeep.

**Precision.** The chunk pipeline runs in a configurable dtype
(``SimulationConfig.distance_dtype``).  float64 (the default) is
bit-identical to the scalar engine.  float32 halves the distance-matrix
memory traffic — the right trade at city scale — and widens the
reachability recheck band to :func:`float32_boundary_tol` so every
decision the reduced precision could flip is re-decided in float64:
candidate sets are identical to the float64 pipeline's (pinned by
tests), only the low-order bits of the matrix entries differ.
:meth:`SimulationEngine.build_problems` hands out the very instances
the round solves, in this dtype.

**Scale.** At 50k+ users three further costs dominate, each handled
here (see docs/architecture.md "Scaling"):

- the mechanism's per-round grid rebuild for Eq. 5 neighbour counts —
  replaced by an :class:`~repro.geometry.grid_index.
  IncrementalNeighbourCounter` fed from the engine's own move loop,
- the per-round task-to-task distance matrix — computed once over *all*
  world tasks (task locations never change) and sliced per round via a
  row mapping instead of rebuilt,
- the per-chunk position/budget gathering — answered from persistent
  per-world arrays maintained in place as users move.

Memory stays bounded: distance chunks are sized by
:attr:`BatchedSimulationEngine.chunk_bytes` (~16 MB per chunk in either
dtype — the element count adapts to the dtype's width), and a chunk's
distance matrix and assembly blocks are dropped once its problems are
solved, so a city-scale round never materialises the full user-by-task
matrix.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.grid_index import IncrementalNeighbourCounter
from repro.obs.trace import NULL_TRACER
from repro.resilience.cancel import NEVER_CANCELLED, CancellationToken
from repro.selection import Selection, Selector
from repro.selection.problem import ProblemBlock, TaskSelectionProblem
from repro.simulation.engine import SimulationEngine
from repro.simulation.perf import PerfStats
from repro.simulation.round_cache import RoundProblems
from repro.world.task import SensingTask
from repro.world.user import MobileUser

#: Distances this close to a user's travel budget are re-decided with
#: ``Point.distance_to`` so the sqrt-pipeline/``math.hypot`` last-ulp
#: disagreement can never flip a reachability decision.
BOUNDARY_TOL = 1e-6

#: Per-chunk byte budget of the distance pipeline.  The chunk *element*
#: count is derived from this per dtype, so float32 chunks hold twice
#: the rows in the same footprint instead of silently halving it.
DEFAULT_CHUNK_BYTES = 16 << 20

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


class BatchedRoundProblems(RoundProblems):
    """Round-problem construction over user chunks instead of users.

    Extends :class:`RoundProblems` with :meth:`iter_blocks`: the same
    per-user instances ``problem_for`` would build, stacked into
    equal-size :class:`ProblemBlock` s from chunked ``(users, tasks)``
    distance matrices for the users with a candidate
    (:meth:`iter_problems` hands them out one by one).  With
    ``task_rows`` the instances come from these two only.

    Args:
        tasks: the round's published tasks, in engine order.
        prices: the mechanism's price per task id.
        stats: optional :class:`PerfStats` (see :class:`RoundProblems`).
        chunk_elements: elements per distance chunk; ``None`` (default)
            derives the count from ``chunk_bytes`` and ``dtype``.
        dtype: the distance pipeline precision — ``np.float64``
            (bit-identical to the scalar engine) or ``np.float32``
            (reachability boundary re-decided in float64).
        chunk_bytes: per-chunk byte budget when ``chunk_elements`` is
            not given (default ~16 MB regardless of dtype).
        task_matrix: optional precomputed distance matrix.  May cover a
            superset of ``tasks`` (e.g. the engine's all-tasks matrix),
            in which case ``task_rows`` maps each task's position in
            ``tasks`` to its row in the matrix.
        task_rows: the row mapping for ``task_matrix`` (identity when
            omitted).
    """

    def __init__(
        self,
        tasks: Sequence[SensingTask],
        prices: Dict[int, float],
        stats=None,
        chunk_elements: Optional[int] = None,
        dtype=np.float64,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        task_matrix: Optional[np.ndarray] = None,
        task_rows: Optional[np.ndarray] = None,
    ):
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(
                f"dtype must be float32 or float64, got {dtype}"
            )
        self.dtype = dtype
        if chunk_elements is None:
            if chunk_bytes < dtype.itemsize:
                raise ValueError(
                    f"chunk_bytes must hold at least one {dtype} element, "
                    f"got {chunk_bytes}"
                )
            chunk_elements = chunk_bytes // dtype.itemsize
        if chunk_elements < 1:
            raise ValueError(f"chunk_elements must be >= 1, got {chunk_elements}")
        self.chunk_elements = int(chunk_elements)
        self._task_rows = (
            None if task_rows is None else np.asarray(task_rows, dtype=np.int64)
        )
        if self._task_rows is not None and len(self._task_rows) != len(tasks):
            raise ValueError(
                f"task_rows must map every task: got {len(self._task_rows)} "
                f"rows for {len(tasks)} tasks"
            )
        super().__init__(tasks, prices, stats=stats, task_matrix=task_matrix)
        self._task_ids = np.asarray(
            [t.task_id for t in self.tasks], dtype=np.int64
        )
        # Task locations in the working dtype (float32 mode casts once;
        # float64 mode reuses the base array).
        self._work_locations = (
            self.locations
            if dtype == np.float64
            else self.locations.astype(np.float32)
        )

    def _build_task_matrix(self) -> np.ndarray:
        if self.dtype == np.float64:
            return super()._build_task_matrix()
        n = len(self.tasks)
        if not n:
            return np.empty((0, 0), dtype=self.dtype)
        locations = self.locations.astype(np.float32)
        dx = locations[:, 0, None] - locations[None, :, 0]
        dy = locations[:, 1, None] - locations[None, :, 1]
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=dx)
        return np.sqrt(dx, out=dx)

    def problem_for(self, user: MobileUser) -> TaskSelectionProblem:
        if self._task_rows is not None:
            raise TypeError(
                "row-mapped round problems are built by iter_problems only"
            )
        return super().problem_for(user)

    def iter_blocks(
        self,
        users: Sequence[MobileUser],
        origins: Optional[np.ndarray] = None,
        budgets: Optional[np.ndarray] = None,
        costs: Optional[np.ndarray] = None,
    ) -> Iterator[Tuple[np.ndarray, ProblemBlock]]:
        """Yield ``(indices, block)`` covering each user with a candidate.

        ``indices`` are the block rows' positions in ``users``.  Blocks
        come chunk by chunk, by ascending candidate count within a chunk;
        each user is in exactly one block.  Users with no eligible,
        reachable task are in none — their Eq. 1 answer is the empty
        selection, which every selector returns for an empty problem
        (pinned by the solver contract tests), so callers skip them.

        Args:
            users: the users to build problems for.
            origins: optional ``(len(users), 2)`` float64 positions
                aligned with ``users`` (the engine's persistent position
                array); gathered from the user objects when omitted.
            budgets: optional ``(len(users),)`` float64 travel budgets,
                same convention.
            costs: optional ``(len(users),)`` float64 cost rates, same
                convention.
        """
        for blocks in self._chunk_blocks(users, origins, budgets, costs):
            yield from blocks

    def iter_problems(
        self,
        users: Sequence[MobileUser],
        origins: Optional[np.ndarray] = None,
        budgets: Optional[np.ndarray] = None,
    ) -> Iterator[Tuple[int, TaskSelectionProblem]]:
        """Yield ``(index, problem)`` for each user with a candidate.

        The rows of :meth:`iter_blocks` one by one, with ``index`` the
        user's position in ``users``; indices ascend.
        """
        for blocks in self._chunk_blocks(users, origins, budgets, None):
            problems = [
                (index, block.problem(j))
                for indices, block in blocks
                for j, index in enumerate(indices.tolist())
            ]
            problems.sort(key=itemgetter(0))
            yield from problems

    def _chunk_blocks(
        self,
        users: Sequence[MobileUser],
        origins: Optional[np.ndarray],
        budgets: Optional[np.ndarray],
        costs: Optional[np.ndarray],
    ) -> Iterator[List[Tuple[np.ndarray, ProblemBlock]]]:
        """One list of ``(indices, block)`` per user chunk."""
        n_tasks = len(self.tasks)
        if n_tasks == 0:
            return
        n_users = len(users)
        if origins is None:
            origins = np.asarray(
                [(u.location.x, u.location.y) for u in users], dtype=float
            ).reshape(n_users, 2)
        if budgets is None:
            budgets = np.asarray(
                [u.max_travel_distance for u in users], dtype=float
            )
        if costs is None:
            costs = np.asarray([u.cost_per_meter for u in users], dtype=float)
        float32 = self.dtype == np.float32
        if float32:
            origins_w = origins.astype(np.float32)
            budgets_w = budgets.astype(np.float32)
            # The recheck band must cover the float32 representation
            # error of every quantity feeding a reach decision.
            coordinate_scale = max(
                float(np.abs(self._work_locations).max(initial=0.0)),
                float(np.abs(origins_w).max(initial=0.0)),
            )
            budget_scale = float(np.abs(budgets_w).max(initial=0.0))
            tol = float32_boundary_tol(coordinate_scale, budget_scale)
        else:
            origins_w, budgets_w, tol = origins, budgets, BOUNDARY_TOL
        chunk_size = max(1, self.chunk_elements // n_tasks)
        contributors = [task.contributors for task in self.tasks]
        # Contributor exclusion, vectorised: resolve every (contributor,
        # task) pair to a (user position, column) pair once per round,
        # then clear those reach bits chunk by chunk — instead of a
        # set-membership filter per (user, candidate) pair.
        pair_rows = pair_cols = None
        if any(contributors):
            position_of = {u.user_id: i for i, u in enumerate(users)}
            pairs = [
                (position, col)
                for col, contributed in enumerate(contributors)
                for user_id in contributed
                if (position := position_of.get(user_id)) is not None
            ]
            if pairs:
                pair_rows = np.asarray([p[0] for p in pairs], dtype=np.int64)
                pair_cols = np.asarray([p[1] for p in pairs], dtype=np.int64)
        locations = self._work_locations
        tasks = self.tasks
        for start in range(0, n_users, chunk_size):
            stop = min(start + chunk_size, n_users)
            chunk_origins = origins_w[start:stop]
            chunk_budgets = budgets_w[start:stop]
            # Same arithmetic as RoundProblems.problem_for — diff,
            # square, one add, sqrt — written per coordinate so no
            # (chunk, tasks, 2) temporary is materialised.  dx*dx+dy*dy
            # is the scalar pipeline's sum over the 2-wide axis (a
            # single correctly-rounded add either way), and (a-b)^2 is
            # exact under negation, so float64 origin-minus-task equals
            # the scalar task-minus-origin rows bitwise.
            dx = chunk_origins[:, 0, None] - locations[None, :, 0]
            dy = chunk_origins[:, 1, None] - locations[None, :, 1]
            np.multiply(dx, dx, out=dx)
            np.multiply(dy, dy, out=dy)
            np.add(dx, dy, out=dx)
            distances = np.sqrt(dx, out=dx)
            del dy
            reach = distances <= chunk_budgets[:, None]
            # Boundary band = within tol above the budget, or reachable
            # but not clearly below it.  Two threshold comparisons beat
            # an abs-difference here: bool temporaries instead of a
            # full-size float one.
            near = distances <= (chunk_budgets + tol)[:, None]
            near &= ~(distances <= (chunk_budgets - tol)[:, None])
            # Boundary-band decisions re-run the scalar float64
            # predicate, one pair at a time (rare at any realistic
            # geometry — the band is micrometers wide in float64 and
            # sub-meter in float32).
            nrows, ncols = np.nonzero(near)
            if len(nrows):
                for row, col in zip(nrows.tolist(), ncols.tolist()):
                    reach[row, col] = (
                        users[start + row].location.distance_to(tasks[col].location)
                        <= budgets[start + row]
                    )
            if pair_rows is not None:
                in_chunk = (pair_rows >= start) & (pair_rows < stop)
                if in_chunk.any():
                    reach[pair_rows[in_chunk] - start, pair_cols[in_chunk]] = False
            yield self._gather_blocks(
                users, start, reach, distances, budgets, costs
            )

    def _gather_blocks(
        self,
        users: Sequence[MobileUser],
        start: int,
        reach: np.ndarray,
        distances: np.ndarray,
        budgets: np.ndarray,
        costs: np.ndarray,
    ) -> List[Tuple[np.ndarray, ProblemBlock]]:
        """One chunk's problem blocks, one per candidate count k.

        Each block's ``(n_k, k+1, k+1)`` distance array is filled by one
        fancy-index gather.  The values are those
        :meth:`RoundProblems.problem_for` computes: the origin row is the
        chunk's distance row (same pipeline; bit-identical in float64),
        the task block is sliced from the shared matrix, and candidates
        keep ascending task order.
        """
        # One nonzero over the whole chunk; rows come out ascending,
        # columns ascending within a row.
        rows, cols = np.nonzero(reach)
        counts = np.bincount(rows, minlength=len(reach))
        offsets = np.zeros(len(reach) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        task_rows = self._task_rows
        if self._stats is not None:
            # One hit per user served, with or without a candidate, as
            # on the scalar engine.
            self._stats.problem_cache_hits += len(reach)
        blocks: List[Tuple[np.ndarray, ProblemBlock]] = []
        for k in np.unique(counts[counts > 0]).tolist():
            group = np.flatnonzero(counts == k)
            picked = cols[offsets[group][:, None] + np.arange(k)]
            matrix_rows = picked if task_rows is None else task_rows[picked]
            origin_rows = distances[group[:, None], picked]
            block = np.empty((len(group), k + 1, k + 1), dtype=self.dtype)
            block[:, 0, 0] = 0.0
            block[:, 0, 1:] = origin_rows
            block[:, 1:, 0] = origin_rows
            block[:, 1:, 1:] = self.task_matrix[
                matrix_rows[:, :, None], matrix_rows[:, None, :]
            ]
            indices = group + start
            blocks.append((indices, ProblemBlock(
                distances=block,
                rewards=self.rewards[picked],
                task_ids=self._task_ids[picked],
                max_distance=budgets[indices],
                cost_per_meter=costs[indices],
                origins=[users[i].location for i in indices.tolist()],
                columns=picked,
                candidates=self.candidates,
            )))
        return blocks


def solve_blocks(
    selector,
    blocks: Iterable[Tuple[np.ndarray, ProblemBlock]],
    perf: PerfStats,
    latency,
    tracer=NULL_TRACER,
    cancel: CancellationToken = NEVER_CANCELLED,
) -> Iterator[Tuple[np.ndarray, List[Selection]]]:
    """Solve ``blocks`` in order; yield ``(indices, selections)`` each.

    The one select loop of the batched engine.
    ``cancel`` is polled before every block.  Each ``select_block`` call
    adds its wall time to ``perf.selector_wall_time`` and one
    ``latency`` observation; ``perf.selector_calls`` counts the block's
    rows, i.e. the instances solved.  With ``tracer.enabled`` each call
    gets one ``select-block`` span (args ``users``, ``tasks``).
    Selectors without ``select_block`` (duck-typed ones) answer row by
    row through :meth:`Selector.select_block`.
    """
    solve = getattr(selector, "select_block", None) or partial(
        Selector.select_block, selector
    )
    for indices, block in blocks:
        cancel.raise_if_cancelled()
        if tracer.enabled:
            with tracer.span(
                "select-block", cat="selector",
                users=len(block), tasks=block.size,
            ):
                started = perf_counter()
                selections = solve(block)
                elapsed = perf_counter() - started
        else:
            started = perf_counter()
            selections = solve(block)
            elapsed = perf_counter() - started
        perf.selector_wall_time += elapsed
        perf.selector_calls += len(block)
        latency.observe(elapsed)
        yield indices, selections


class BatchedSimulationEngine(SimulationEngine):
    """The scalar engine with the vectorised per-round hot paths.

    Differences from :class:`SimulationEngine` — none of them visible in
    the produced history:

    - problems come from :class:`BatchedRoundProblems` chunks, sliced
      from a cross-round all-tasks distance matrix, as equal-size
      blocks each solved by one ``select_block`` call,
    - users with zero candidates skip the selector entirely,
    - mechanisms exposing a ``batched`` flag price rounds through their
      vectorised Eq. 2–7 path, fed by an incremental neighbour counter
      (mechanisms exposing a ``neighbour_counter`` hook) instead of a
      per-round grid rebuild.
    """

    #: Per-chunk byte budget for the distance pipeline (the element
    #: count adapts to the configured dtype).
    chunk_bytes = DEFAULT_CHUNK_BYTES

    #: Explicit element override; ``None`` derives from ``chunk_bytes``.
    chunk_elements: Optional[int] = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if hasattr(self.mechanism, "batched"):
            self.mechanism.batched = True
        self._dtype = np.dtype(
            np.float32 if self.config.distance_dtype == "float32" else np.float64
        )
        self._build_user_arrays()
        self._full_task_matrix: Optional[np.ndarray] = None
        self._task_row_of: Dict[int, int] = {
            t.task_id: i for i, t in enumerate(self.world.tasks)
        }
        self._neighbour_counter = self._build_neighbour_counter()

    def _build_user_arrays(self) -> None:
        """The persistent per-row position, budget and cost arrays."""
        users = self.world.users
        self._positions = np.asarray(
            [(u.location.x, u.location.y) for u in users], dtype=float
        ).reshape(len(users), 2)
        self._budgets = np.asarray(
            [u.max_travel_distance for u in users], dtype=float
        )
        self._costs = np.asarray([u.cost_per_meter for u in users], dtype=float)

    # -- incremental neighbour counts -----------------------------------

    def _build_neighbour_counter(self) -> Optional[IncrementalNeighbourCounter]:
        """An Eq. 5 counter primed with every task the world will publish.

        Only mechanisms exposing a ``neighbour_counter`` hook get one;
        priming everything up front means later task releases (Poisson /
        burst arrivals) never trigger a full population rescan.
        """
        radius = getattr(self.mechanism, "neighbour_radius", None)
        if not radius or not hasattr(self.mechanism, "neighbour_counter"):
            return None
        counter = IncrementalNeighbourCounter(
            [u.location for u in self.world.users], radius=float(radius)
        )
        counter.prime([t.location for t in self.world.tasks])
        self.mechanism.neighbour_counter = counter
        return counter

    def _round_user_locations(self):
        # With an incremental counter injected, the mechanism never
        # reads per-round user locations — skip building the O(users)
        # list every round.
        if self._neighbour_counter is not None:
            return ()
        return super()._round_user_locations()

    # -- open-world churn ------------------------------------------------

    def _apply_dynamics(self, changes) -> None:
        """The scalar world mutation, plus array and counter upkeep.

        Population changes invalidate every user-aligned array (rows
        shift when users leave), so positions/budgets/costs/row maps are
        rebuilt and the incremental neighbour counter gets a forced
        full rebuild over the new population (which also re-primes
        every task, including any published this round).  A task-only
        change keeps the counter and just primes the new centers.
        """
        super()._apply_dynamics(changes)
        rebuilt_counter = False
        if changes.population_changed:
            self._build_user_arrays()
            self._neighbour_counter = self._build_neighbour_counter()
            rebuilt_counter = True
        if changes.tasks:
            self._task_row_of = {
                t.task_id: i for i, t in enumerate(self.world.tasks)
            }
            self._full_task_matrix = None
            if self._neighbour_counter is not None and not rebuilt_counter:
                self._neighbour_counter.prime(
                    [t.location for t in changes.tasks]
                )

    def _apply_moves(self, movers, selections, tasks_by_id) -> None:
        """The scalar move pass, plus position-array and counter upkeep.

        Mobility policies return the *same object* when a user does not
        move (stationary users sit on their home point; path followers
        with no path keep their location), so an identity check finds
        the movers without a coordinate comparison.  A returned new
        object with equal coordinates is treated as a move — harmless:
        its counter delta is exactly zero.
        """
        users = self.world.users
        refresh = self._rows().refresh
        moved_rows: List[int] = []
        moved_old: List = []
        moved_new: List = []
        for row in movers:
            user = users[row]
            old = user.location
            self._move_user(user, selections[row], tasks_by_id)
            new = user.location
            if new is old:
                continue
            refresh(row, user)
            moved_rows.append(row)
            moved_old.append(old)
            moved_new.append(new)
        if not moved_rows:
            return
        self._positions[moved_rows] = [(p.x, p.y) for p in moved_new]
        if self._neighbour_counter is not None:
            self._neighbour_counter.apply_moves(moved_rows, moved_old, moved_new)

    # -- problem construction -------------------------------------------

    def _task_geometry(self) -> np.ndarray:
        """The all-tasks distance matrix, built once per run.

        Task locations never change, so every round's active-set matrix
        is a row/column slice of this one (each entry depends only on
        its two endpoints — slices are bit-identical to a fresh build).
        """
        if self._full_task_matrix is None:
            all_tasks = self.world.tasks
            shim = BatchedRoundProblems(
                [], {}, dtype=self._dtype, chunk_elements=1
            )
            shim.tasks = list(all_tasks)
            shim.locations = np.asarray(
                [(t.location.x, t.location.y) for t in all_tasks], dtype=float
            ).reshape(len(all_tasks), 2)
            self._full_task_matrix = shim._build_task_matrix()
        return self._full_task_matrix

    def _make_round_problems(self, active, prices) -> BatchedRoundProblems:
        task_rows = np.asarray(
            [self._task_row_of[t.task_id] for t in active], dtype=np.int64
        )
        return BatchedRoundProblems(
            active,
            prices,
            stats=self._perf,
            chunk_elements=self.chunk_elements,
            dtype=self._dtype,
            chunk_bytes=self.chunk_bytes,
            task_matrix=self._task_geometry(),
            task_rows=task_rows,
        )

    # -- the select phase -----------------------------------------------

    def _user_problems(self, problems):
        """The round's instances exactly as the round builds them.

        Goes through :meth:`BatchedRoundProblems.iter_problems`, so the
        instances carry the engine's distance dtype bit for bit; users
        with no candidate get a size-0 problem (the round skips them).
        """
        users = self.world.users
        built = dict(problems.iter_problems(
            users, origins=self._positions, budgets=self._budgets
        ))
        return [
            (user, built.get(row) or TaskSelectionProblem(
                origin=user.location,
                candidates=(),
                max_distance=float(user.max_travel_distance),
                cost_per_meter=float(user.cost_per_meter),
                distance_matrix=np.zeros((1, 1), dtype=self._dtype),
            ))
            for row, user in enumerate(users)
        ]

    def _collect_selections(
        self,
        active: List[SensingTask],
        prices: Dict[int, float],
        participating: np.ndarray,
    ) -> List[Selection]:
        problems = self._round_problems(active, prices)
        users = self.world.users
        selections = [Selection.empty()] * len(users)
        if participating.all():
            participants, rows = users, None
            origins, budgets, costs = self._positions, self._budgets, self._costs
        else:
            rows = np.flatnonzero(participating)
            participants = [users[row] for row in rows.tolist()]
            origins = self._positions[rows]
            budgets, costs = self._budgets[rows], self._costs[rows]
        blocks = problems.iter_blocks(
            participants, origins=origins, budgets=budgets, costs=costs
        )
        for indices, solved in solve_blocks(
            self.selector, blocks, self._perf,
            self._metrics.histogram("selector_seconds"),
            tracer=self.tracer, cancel=self.cancel,
        ):
            world_rows = indices if rows is None else rows[indices]
            for row, selection in zip(world_rows.tolist(), solved):
                selections[row] = selection
        return selections
