"""The sharded select phase: fan one round's Eq. 1 solves across processes.

At city scale the select phase dominates the round: every participant
solves an independent :class:`TaskSelectionProblem`, and independence is
exactly what makes the phase shardable.  The pool partitions the round's
participants into contiguous shards, ships each shard to a worker
process, and merges the per-user :class:`Selection` objects back in
world order.  Because each user's selection depends only on that user's
position/budget and the shared round state — never on another user's
selection — the merged sequence is **bit-identical to the single-process
batched path at every worker count** (pinned by the determinism tests).

Data movement is kept off the per-round path:

- the *static* world state — user budgets/costs/ids, task locations/ids,
  and the all-tasks distance matrix — is written once into
  ``multiprocessing.shared_memory`` blocks at pool construction,
- user *positions* live in a shared block too: the engine's persistent
  position array is re-bound onto it, so the parent's in-place move
  updates are visible to workers with zero copying,
- only the round-varying scraps travel by pickle: active-task row
  indices, the price vector, contributor pairs, and each shard's
  participant rows — and, back, the ``(row, selection)`` pairs of the
  users who had a candidate.

Workers rebuild lightweight task/user proxies over the shared arrays and
run the exact :class:`~repro.simulation.batch.BatchedRoundProblems`
pipeline and block-solve loop (:func:`~repro.simulation.batch.
solve_blocks`) the parent would, with the same configured selector
(shipped once, pickled, at pool start).  Perf partials (selector
calls/wall time, latency histogram, watchdog fallbacks, DP states) come
back with each shard and are folded into the parent's round
accounting, with the problem-cache counters normalised to
single-process semantics (one miss per round, one hit per participant)
so perf records do not vary with the worker count.

The pool prefers the ``fork`` start method (cheap on Linux; the workers
inherit the interpreter state) and falls back to ``spawn`` where fork is
unavailable.  Workers unregister the inherited shared-memory blocks from
their ``resource_tracker`` so a worker exit never unlinks blocks the
parent still owns (bpo-39959).
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.obs.metrics import Histogram
from repro.obs.trace import NULL_TRACER, TraceContext, TraceShardWriter
from repro.resilience.errors import ConfigError
from repro.selection import Selection
from repro.simulation.perf import PerfStats


@dataclass(frozen=True)
class _ShardTask:
    """The slice of a :class:`SensingTask` the select phase reads."""

    task_id: int
    location: Point
    contributors: frozenset


@dataclass(frozen=True)
class _ShardUser:
    """The slice of a :class:`MobileUser` the select phase reads."""

    user_id: int
    location: Point
    max_travel_distance: float
    cost_per_meter: float


#: Worker-process state built once by :func:`_worker_init`.
_STATE: Optional[dict] = None

#: Shared-memory block keys, in the order they are allocated.
_BLOCKS = (
    "positions",
    "budgets",
    "costs",
    "user_ids",
    "task_locs",
    "task_ids",
    "task_matrix",
)


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach an existing block without adopting its lifetime.

    On this interpreter (3.9+) attach-only ``SharedMemory`` does not
    register with the resource tracker, so the parent keeps sole
    ownership — the worker must *not* unregister (fork workers share
    the parent's tracker process; unregistering here would strip the
    parent's own registration, see bpo-39959's history).
    """
    return shared_memory.SharedMemory(name=name)


def _attach_blocks(specs: Dict[str, Tuple[str, tuple, str]]) -> Tuple[dict, dict]:
    """Attach every block in ``specs``; return (blocks, arrays)."""
    blocks = {}
    arrays = {}
    for key in _BLOCKS:
        name, shape, dtype = specs[key]
        shm = _attach(name)
        blocks[key] = shm
        arrays[key] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    return blocks, arrays


def _worker_init(payload: dict) -> None:
    """Build the per-worker state: shared views + the selector.

    When the owning process carries a :class:`TraceContext` (a job
    supervised under the live-operations layer), every pool worker
    opens its own per-process trace shard — ``shard-<pid>.trace.jsonl``
    in the job's trace directory — and records one span per shard
    solve, with one ``select-block`` span per problem block inside it,
    streamed to disk as each finishes.
    """
    global _STATE
    blocks, arrays = _attach_blocks(payload["blocks"])
    tracer = NULL_TRACER
    trace_env = payload.get("trace")
    if trace_env:
        ctx = TraceContext.from_env(trace_env)
        if ctx is not None:
            name = f"shard-{os.getpid()}"
            shard_ctx = ctx.child(name, parent_span_id="select")
            tracer = TraceShardWriter(
                shard_ctx.shard_path(), metadata=shard_ctx.metadata()
            )
    _STATE = {
        "blocks": blocks,
        "arrays": arrays,
        "generation": payload["generation"],
        "selector": pickle.loads(payload["selector"]),
        "dtype": np.dtype(payload["dtype"]),
        "chunk_elements": payload["chunk_elements"],
        "chunk_bytes": payload["chunk_bytes"],
        "tracer": tracer,
    }


def _worker_select(job: dict) -> Tuple[List[Tuple[int, Selection]], dict]:
    """Solve one shard: ``(world row, selection)`` for each user in
    ``job['rows']`` with a candidate, plus partials."""
    state = _STATE
    if job["generation"] != state["generation"]:
        # The parent re-published the world (open-world churn): drop the
        # stale views and re-attach the job's generation.  The parent
        # may already have unlinked the old blocks — POSIX keeps the
        # memory alive until this close, which cannot fail the round.
        for shm in state["blocks"].values():
            try:
                shm.close()
            except Exception:  # pragma: no cover - close is best effort
                pass
        state["blocks"], state["arrays"] = _attach_blocks(job["blocks"])
        state["generation"] = job["generation"]
    arrays = state["arrays"]
    active_rows = np.asarray(job["active_rows"], dtype=np.int64)
    contributors: List[Set[int]] = [set() for _ in range(len(active_rows))]
    for pos, user_id in zip(job["contrib_task"], job["contrib_user"]):
        contributors[int(pos)].add(int(user_id))
    task_locs = arrays["task_locs"]
    task_ids = arrays["task_ids"]
    tasks = [
        _ShardTask(
            task_id=int(task_ids[row]),
            location=Point(float(task_locs[row, 0]), float(task_locs[row, 1])),
            contributors=frozenset(contributors[i]),
        )
        for i, row in enumerate(active_rows.tolist())
    ]
    prices = {
        task.task_id: float(price) for task, price in zip(tasks, job["prices"])
    }
    # Imported here (not at module top) so spawn-mode workers pay the
    # import once in the initializer-adjacent first call, and to avoid
    # an import cycle with batch.py.
    from repro.simulation.batch import BatchedRoundProblems, solve_blocks

    problems = BatchedRoundProblems(
        tasks,
        prices,
        chunk_elements=state["chunk_elements"],
        dtype=state["dtype"],
        chunk_bytes=state["chunk_bytes"],
        task_matrix=arrays["task_matrix"],
        task_rows=active_rows,
    )
    rows = np.asarray(job["rows"], dtype=np.int64)
    positions = arrays["positions"]
    budgets = arrays["budgets"]
    costs = arrays["costs"]
    user_ids = arrays["user_ids"]
    users = [
        _ShardUser(
            user_id=int(user_ids[row]),
            location=Point(float(positions[row, 0]), float(positions[row, 1])),
            max_travel_distance=float(budgets[row]),
            cost_per_meter=float(costs[row]),
        )
        for row in rows.tolist()
    ]
    selector = state["selector"]
    tracer = state.get("tracer", NULL_TRACER)
    latency = Histogram()
    perf = PerfStats()
    selections: List[Tuple[int, Selection]] = []
    with tracer.span(
        "shard-select", cat="shard", users=len(users), tasks=len(tasks)
    ):
        blocks = problems.iter_blocks(
            users, origins=positions[rows], budgets=budgets[rows],
            costs=costs[rows],
        )
        for indices, solved in solve_blocks(
            selector, blocks, perf, latency, tracer=tracer
        ):
            selections.extend(zip(rows[indices].tolist(), solved))
    consume = getattr(selector, "consume_round_fallbacks", None)
    fallbacks = consume() if consume is not None else 0
    states = 0
    for candidate in (selector, getattr(selector, "inner", None)):
        consume = getattr(candidate, "consume_states_expanded", None)
        if consume is not None:
            states = consume()
            break
    return selections, {
        "selector_calls": perf.selector_calls,
        "selector_wall_time": perf.selector_wall_time,
        "fallbacks": fallbacks,
        "dp_states": states,
        "hist_bucket_counts": latency.bucket_counts,
        "hist_count": latency.count,
        "hist_sum": latency.sum,
        "hist_min": latency.min,
        "hist_max": latency.max,
    }


class ShardedSelectionPool:
    """A process pool running the batched engine's select phase in shards.

    Args:
        engine: the owning :class:`BatchedSimulationEngine` (its world,
            position/budget arrays and task geometry are shared with the
            workers).
        workers: worker process count (>= 2; 1 would just be the
            in-process path with IPC overhead).

    Raises:
        ConfigError: for a worker count below 2 or a selector that
            cannot be pickled to the workers.
    """

    def __init__(self, engine, workers: int):
        if workers < 2:
            raise ConfigError(
                f"a sharded select phase needs workers >= 2, got {workers} "
                f"(use workers=1 for the in-process batched path)"
            )
        self.engine = engine
        self.workers = int(workers)
        try:
            selector_bytes = pickle.dumps(engine.selector)
        except Exception as exc:
            raise ConfigError(
                f"workers={workers} requires a picklable selector (each "
                f"worker process runs its own copy); pickling "
                f"{type(engine.selector).__name__} failed: {exc}"
            ) from exc
        self._shms: List[shared_memory.SharedMemory] = []
        self._generation = 0
        self._publish_world()
        # Hand the owning process's trace context (if any) to the pool
        # explicitly: fork children would inherit the environment anyway,
        # but spawn children would not.
        trace_ctx = TraceContext.from_env()
        payload = {
            "blocks": self._block_specs,
            "generation": self._generation,
            "selector": selector_bytes,
            "dtype": str(engine._dtype),
            "chunk_elements": engine.chunk_elements,
            "chunk_bytes": engine.chunk_bytes,
            "trace": trace_ctx.to_env() if trace_ctx is not None else None,
        }
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context("spawn")
        self._executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(payload,),
        )
        self._closed = False

    def _publish_world(self) -> None:
        """Copy the engine's world state into fresh shared blocks.

        The engine's live position/budget/matrix arrays are re-bound
        onto the blocks, so the parent's in-place updates stay visible
        to workers with zero per-round copying (and the task matrix is
        not held twice).
        """
        engine = self.engine
        users = engine.world.users
        tasks = engine.world.tasks
        self._block_specs: Dict[str, Tuple[str, tuple, str]] = {}
        positions = self._share("positions", engine._positions)
        budgets = self._share("budgets", engine._budgets)
        self._share("costs", engine._costs)
        self._share(
            "user_ids", np.asarray([u.user_id for u in users], dtype=np.int64)
        )
        self._share(
            "task_locs",
            np.asarray(
                [(t.location.x, t.location.y) for t in tasks], dtype=float
            ).reshape(len(tasks), 2),
        )
        self._share(
            "task_ids", np.asarray([t.task_id for t in tasks], dtype=np.int64)
        )
        matrix = self._share("task_matrix", engine._task_geometry())
        engine._positions = positions
        engine._budgets = budgets
        engine._full_task_matrix = matrix

    def refresh(self) -> None:
        """Re-publish the shared blocks after open-world churn.

        The world's shapes changed (users left/joined, tasks appeared),
        so every block is re-shared under a bumped generation; each
        worker re-attaches lazily when its next job's generation tag
        does not match.  The previous generation's blocks are unlinked
        right away — POSIX keeps them alive for any worker still
        holding the old mapping until it closes them.
        """
        old = self._shms
        self._shms = []
        self._publish_world()
        self._generation += 1
        for shm in old:
            try:
                shm.close()
                shm.unlink()
            except Exception:  # pragma: no cover - double-close safety
                pass

    def _share(self, key: str, array: np.ndarray) -> np.ndarray:
        """Copy ``array`` into a fresh shared block; return the view."""
        array = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes)
        )
        self._shms.append(shm)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        self._block_specs[key] = (shm.name, array.shape, str(array.dtype))
        return view

    # -- the round-level entry point ------------------------------------

    def collect(
        self,
        active: Sequence,
        prices: Dict[int, float],
        participating: np.ndarray,
    ) -> List[Selection]:
        """The sharded equivalent of ``_collect_selections``.

        Returns one selection per user in world order — exactly what
        the in-process path returns, merged from the shards' partitions
        (users without a candidate keep the shared empty selection).
        """
        engine = self.engine
        rows = np.flatnonzero(participating)
        active_rows = np.asarray(
            [engine._task_row_of[t.task_id] for t in active], dtype=np.int64
        )
        price_vector = np.asarray(
            [prices[t.task_id] for t in active], dtype=float
        )
        contrib_task: List[int] = []
        contrib_user: List[int] = []
        for pos, task in enumerate(active):
            for user_id in task.contributors:
                contrib_task.append(pos)
                contrib_user.append(user_id)
        base = {
            "active_rows": active_rows,
            "prices": price_vector,
            "contrib_task": np.asarray(contrib_task, dtype=np.int64),
            "contrib_user": np.asarray(contrib_user, dtype=np.int64),
            "generation": self._generation,
            "blocks": self._block_specs,
        }
        futures = [
            self._executor.submit(_worker_select, {**base, "rows": shard})
            for shard in np.array_split(rows, self.workers)
        ]
        merged = [Selection.empty()] * len(participating)
        for future in futures:
            # Futures resolve in shard order (not completion order) so
            # the merge is deterministic; the wait loop keeps honouring
            # the engine's cancellation token.
            while True:
                try:
                    selections, partials = future.result(timeout=0.25)
                except concurrent.futures.TimeoutError:
                    engine.cancel.raise_if_cancelled()
                    continue
                break
            for row, selection in selections:
                merged[row] = selection
            self._fold_partials(partials)
        # Single-process cache accounting: one shared construction per
        # round, one hit per participant — independent of the worker
        # count.
        engine._perf.problem_cache_misses += 1
        engine._perf.problem_cache_hits += len(rows)
        return merged

    def _fold_partials(self, partials: dict) -> None:
        """Fold one shard's perf/latency partials into the round's."""
        engine = self.engine
        engine._perf.selector_calls += partials["selector_calls"]
        engine._perf.selector_wall_time += partials["selector_wall_time"]
        engine._perf.dp_states_expanded += partials["dp_states"]
        engine._shard_fallbacks += partials["fallbacks"]
        if partials["hist_count"]:
            latency = engine._metrics.histogram("selector_seconds")
            for i, count in enumerate(partials["hist_bucket_counts"]):
                latency.bucket_counts[i] += count
            latency.count += partials["hist_count"]
            latency.sum += partials["hist_sum"]
            if latency.min is None or partials["hist_min"] < latency.min:
                latency.min = partials["hist_min"]
            if latency.max is None or partials["hist_max"] > latency.max:
                latency.max = partials["hist_max"]

    # -- lifetime -------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` already ran (shared blocks unlinked)."""
        return self._closed

    def close(self) -> None:
        """Shut the workers down and release the shared blocks.

        The engine's live arrays are copied back onto private memory
        first, so a closed pool leaves the engine fully usable (on the
        in-process path).
        """
        if self._closed:
            return
        self._closed = True
        engine = self.engine
        engine._positions = np.array(engine._positions)
        engine._budgets = np.array(engine._budgets)
        if engine._full_task_matrix is not None:
            engine._full_task_matrix = np.array(engine._full_task_matrix)
        self._executor.shutdown(wait=True, cancel_futures=True)
        for shm in self._shms:
            try:
                shm.close()
                shm.unlink()
            except Exception:  # pragma: no cover - double-close safety
                pass
        self._shms = []
