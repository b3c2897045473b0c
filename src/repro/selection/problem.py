"""The per-user, per-round task-selection problem instance.

This is the travel graph of Theorem 1: node 0 is the user's current
location, nodes 1..m are the candidate task locations, edge weights are
Euclidean travel distances, and node weights are the round's rewards.
The constructor prunes tasks that can never be on a feasible path
(direct distance beyond the travel budget), which is lossless, and
precomputes the full distance matrix once so solvers do no per-pair
geometry.

:class:`ProblemChunk` holds one assembly chunk's instances as its
candidate (user, task) pairs — CSR rows of ascending task columns with
their origin distances, over the round's shared task-to-task matrix —
so a selector can solve them all in one call
(:meth:`~repro.selection.base.Selector.select_chunk`).
:class:`ProblemBlock` stacks n instances of equal candidate count k —
one ``(n, k+1, k+1)`` distance array plus per-row rewards, ids, budgets
and cost rates — for the selectors that need dense per-row matrices
(:meth:`~repro.selection.base.Selector.select_block`);
:meth:`ProblemChunk.blocks` cuts a chunk into them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry.distances import pairwise_distances
from repro.geometry.point import Point
from repro.selection.base import CandidateTask, Selection


@dataclass(frozen=True)
class TaskSelectionProblem:
    """One user's Eq. 1 instance for one round.

    Args:
        origin: the user's current location (path start; node 0).
        candidates: the selectable tasks after pruning.
        max_distance: the travel-distance budget ``speed * time_budget`` (m).
        cost_per_meter: movement cost in $/m.
        distance_matrix: ``(m+1, m+1)`` distances; row/col 0 is the origin.

    Build via :meth:`build` — the constructor trusts its inputs.
    """

    origin: Point
    candidates: Tuple[CandidateTask, ...]
    max_distance: float
    cost_per_meter: float
    distance_matrix: np.ndarray

    @classmethod
    def build(
        cls,
        origin: Point,
        candidates: Sequence[CandidateTask],
        max_distance: float,
        cost_per_meter: float,
    ) -> "TaskSelectionProblem":
        """Construct the instance, pruning unreachable candidates.

        A task whose *direct* distance from the origin exceeds
        ``max_distance`` cannot appear on any feasible path (every path
        to it is at least that long by the triangle inequality), so
        dropping it preserves the optimum exactly.

        Raises:
            ValueError: for a negative budget or cost rate, or duplicate
                candidate task ids.
        """
        if max_distance < 0:
            raise ValueError(f"max_distance must be non-negative, got {max_distance}")
        if cost_per_meter < 0:
            raise ValueError(
                f"cost_per_meter must be non-negative, got {cost_per_meter}"
            )
        ids = [c.task_id for c in candidates]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate candidate task ids: {sorted(ids)}")
        reachable = [
            c for c in candidates if origin.distance_to(c.location) <= max_distance
        ]
        points = [origin] + [c.location for c in reachable]
        matrix = pairwise_distances(points)
        return cls(
            origin=origin,
            candidates=tuple(reachable),
            max_distance=float(max_distance),
            cost_per_meter=float(cost_per_meter),
            distance_matrix=matrix,
        )

    # -- structure ----------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of candidate tasks m (after pruning)."""
        return len(self.candidates)

    @property
    def rewards(self) -> np.ndarray:
        """Candidate rewards as an array aligned with ``candidates``."""
        return np.asarray([c.reward for c in self.candidates], dtype=float)

    def restricted_to(self, indices: Sequence[int]) -> "TaskSelectionProblem":
        """A sub-problem over a subset of candidate *indices* (0-based).

        Used by the reference DP selector to cap instance size: it
        keeps the highest-potential candidates and solves exactly on
        those.
        """
        index_list = sorted(set(indices))
        if any(i < 0 or i >= self.size for i in index_list):
            raise ValueError(f"candidate indices out of range: {indices}")
        keep = [0] + [i + 1 for i in index_list]  # matrix rows incl. origin
        sub_matrix = self.distance_matrix[np.ix_(keep, keep)]
        return TaskSelectionProblem(
            origin=self.origin,
            candidates=tuple(self.candidates[i] for i in index_list),
            max_distance=self.max_distance,
            cost_per_meter=self.cost_per_meter,
            distance_matrix=sub_matrix,
        )

    # -- evaluation helpers ---------------------------------------------------

    def path_distance(self, order: Sequence[int]) -> float:
        """Distance of the origin-anchored path visiting candidate *indices* in order."""
        dist = 0.0
        prev = 0
        for idx in order:
            node = idx + 1
            dist += float(self.distance_matrix[prev, node])
            prev = node
        return dist

    def evaluate(self, order: Sequence[int]) -> Selection:
        """Build the :class:`Selection` for a visit order of candidate indices.

        Raises:
            ValueError: for duplicate or out-of-range indices.
        """
        if len(set(order)) != len(order):
            raise ValueError(f"duplicate candidate indices in order: {order}")
        if any(i < 0 or i >= self.size for i in order):
            raise ValueError(f"candidate indices out of range: {order}")
        distance = self.path_distance(order)
        # Left to right from 0.0, as the block kernels add: ``sum()``
        # compensates float sums from CPython 3.12 on.
        reward = 0.0
        for i in order:
            reward += self.candidates[i].reward
        return Selection(
            task_ids=tuple(self.candidates[i].task_id for i in order),
            distance=distance,
            reward=reward,
            cost=distance * self.cost_per_meter,
        )

    def is_feasible(self, order: Sequence[int]) -> bool:
        """Whether a visit order respects the travel budget (with float slack)."""
        return self.path_distance(order) <= self.max_distance + 1e-9

    def path_points(self, task_ids: Sequence[int]) -> List[Point]:
        """Locations of the given *task ids* in order (for the mobility policy).

        Raises:
            ValueError: for an id that is not among the candidates.
        """
        by_id = {c.task_id: c.location for c in self.candidates}
        try:
            return [by_id[task_id] for task_id in task_ids]
        except KeyError as exc:
            raise ValueError(f"task id {exc.args[0]} is not a candidate") from None


@dataclass(frozen=True)
class ProblemBlock:
    """n Eq. 1 instances with the same candidate count k, stacked.

    Row ``j`` is the instance :meth:`problem` returns: node 0 of
    ``distances[j]`` is that user's origin, node ``i + 1`` its candidate
    ``columns[j, i]``, a row of the round's shared ``locations``.
    Candidates keep ascending column order within a row.

    Args:
        distances: ``(n, k+1, k+1)`` travel distances, in the building
            engine's dtype (float32 or float64).
        rewards: ``(n, k)`` float64 candidate rewards.
        task_ids: ``(n, k)`` candidate task ids.
        max_distance: ``(n,)`` float64 travel budgets.
        cost_per_meter: ``(n,)`` float64 movement cost rates.
        origins: ``(n, 2)`` float64 origin coordinates.
        columns: ``(n, k)`` rows of each row's candidates in
            ``locations``.
        locations: the round's ``(m, 2)`` float64 task locations.

    Like :class:`TaskSelectionProblem`, the constructor trusts its
    inputs: blocks are cut from assembly's chunks
    (:meth:`ProblemChunk.blocks`).
    """

    distances: np.ndarray
    rewards: np.ndarray
    task_ids: np.ndarray
    max_distance: np.ndarray
    cost_per_meter: np.ndarray
    origins: np.ndarray
    columns: np.ndarray
    locations: np.ndarray

    def __len__(self) -> int:
        """Number of instances n."""
        return len(self.rewards)

    @property
    def size(self) -> int:
        """Candidate count k of every instance."""
        return self.rewards.shape[1]

    def problem(self, j: int) -> TaskSelectionProblem:
        """Row ``j`` as a standalone instance (its matrix is a view)."""
        return TaskSelectionProblem(
            origin=Point(*self.origins[j].tolist()),
            candidates=tuple([
                CandidateTask(task_id=task_id, location=Point(x, y), reward=reward)
                for task_id, (x, y), reward in zip(
                    self.task_ids[j].tolist(),
                    self.locations[self.columns[j]].tolist(),
                    self.rewards[j].tolist(),
                )
            ]),
            max_distance=float(self.max_distance[j]),
            cost_per_meter=float(self.cost_per_meter[j]),
            distance_matrix=self.distances[j],
        )


@dataclass(frozen=True)
class ProblemChunk:
    """One assembly chunk's Eq. 1 instances, as candidate pairs.

    Row ``j`` is the user at position ``indices[j]`` of the assembled
    users; its candidates are the tasks at ``columns[offsets[j]:
    offsets[j + 1]]`` (ascending) of the round's shared arrays, each
    ``distances`` away from its origin.  Node ``i + 1`` of its instance
    is its i-th candidate, so the instance's matrix is the origin row
    from ``distances`` and the task block from ``task_matrix``.

    Args:
        indices: ``(n,)`` ascending positions of the rows' users, only
            users with at least one candidate.
        offsets: ``(n + 1,)`` int64 row starts in ``columns``, from 0.
        columns: every row's candidate task columns, row after row.
        distances: each candidate's origin distance, in the building
            engine's dtype (float32 or float64).
        max_distance: ``(n,)`` float64 travel budgets.
        cost_per_meter: ``(n,)`` float64 movement cost rates.
        origins: ``(n, 2)`` float64 origin coordinates.
        task_matrix: the round's ``(m, m)`` task-to-task distances, in
            the dtype of ``distances``.
        rewards: ``(m,)`` float64 task rewards.
        task_ids: ``(m,)`` task ids.
        locations: ``(m, 2)`` float64 task locations.

    The constructor trusts its inputs: chunks are built by the engine's
    assembly (:class:`~repro.simulation.round_cache.RoundProblems`).
    """

    indices: np.ndarray
    offsets: np.ndarray
    columns: np.ndarray
    distances: np.ndarray
    max_distance: np.ndarray
    cost_per_meter: np.ndarray
    origins: np.ndarray
    task_matrix: np.ndarray
    rewards: np.ndarray
    task_ids: np.ndarray
    locations: np.ndarray

    def __len__(self) -> int:
        """Number of instances n."""
        return len(self.indices)

    @property
    def sizes(self) -> np.ndarray:
        """``(n,)`` candidate count of each row."""
        return np.diff(self.offsets)

    def blocks(self) -> List[Tuple[np.ndarray, ProblemBlock]]:
        """One ``(rows, block)`` pair per candidate count k (ascending):
        ``rows`` are the chunk rows the block stacks, in order.

        Each block's ``(n_k, k+1, k+1)`` distance array is filled by one
        fancy-index gather: the origin row from the pair distances, the
        task block sliced from the shared matrix.
        """
        counts = self.sizes
        blocks: List[Tuple[np.ndarray, ProblemBlock]] = []
        for k in np.unique(counts).tolist():
            rows = np.flatnonzero(counts == k)
            at = self.offsets[rows][:, None] + np.arange(k)
            picked = self.columns[at]
            origin_rows = self.distances[at]
            block = np.empty((len(rows), k + 1, k + 1), dtype=self.task_matrix.dtype)
            block[:, 0, 0] = 0.0
            block[:, 0, 1:] = origin_rows
            block[:, 1:, 0] = origin_rows
            block[:, 1:, 1:] = self.task_matrix[
                picked[:, :, None], picked[:, None, :]
            ]
            blocks.append((rows, ProblemBlock(
                distances=block,
                rewards=self.rewards[picked],
                task_ids=self.task_ids[picked],
                max_distance=self.max_distance[rows],
                cost_per_meter=self.cost_per_meter[rows],
                origins=self.origins[rows],
                columns=picked,
                locations=self.locations,
            )))
        return blocks
