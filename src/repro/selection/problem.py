"""The per-user, per-round task-selection problem instance.

This is the travel graph of Theorem 1: node 0 is the user's current
location, nodes 1..m are the candidate task locations, edge weights are
Euclidean travel distances, and node weights are the round's rewards.
The constructor prunes tasks that can never be on a feasible path
(direct distance beyond the travel budget), which is lossless, and
precomputes the full distance matrix once so solvers do no per-pair
geometry.

:class:`ProblemBlock` stacks n instances of equal candidate count k —
one ``(n, k+1, k+1)`` distance array plus per-row rewards, ids, budgets
and cost rates — so a selector can solve them all in one call
(:meth:`~repro.selection.base.Selector.select_block`, or several blocks
at once through :meth:`~repro.selection.base.Selector.select_blocks`).
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
    ``columns[j, i]`` of the shared ``candidates`` pool.  Candidates keep
    ascending pool order within a row.

    Args:
        distances: ``(n, k+1, k+1)`` travel distances, in the building
            engine's dtype (float32 or float64).
        rewards: ``(n, k)`` float64 candidate rewards.
        task_ids: ``(n, k)`` candidate task ids.
        max_distance: ``(n,)`` float64 travel budgets.
        cost_per_meter: ``(n,)`` float64 movement cost rates.
        origins: ``(n, 2)`` float64 origin coordinates.
        columns: ``(n, k)`` positions of each row's candidates in
            ``candidates``.
        candidates: the round's candidate pool.

    Like :class:`TaskSelectionProblem`, the constructor trusts its
    inputs: blocks are built by the engine's assembly
    (:class:`~repro.simulation.round_cache.RoundProblems`).
    """

    distances: np.ndarray
    rewards: np.ndarray
    task_ids: np.ndarray
    max_distance: np.ndarray
    cost_per_meter: np.ndarray
    origins: np.ndarray
    columns: np.ndarray
    candidates: Sequence[CandidateTask]

    def __len__(self) -> int:
        """Number of instances n."""
        return len(self.rewards)

    @property
    def size(self) -> int:
        """Candidate count k of every instance."""
        return self.rewards.shape[1]

    def problem(self, j: int) -> TaskSelectionProblem:
        """Row ``j`` as a standalone instance (its matrix is a view)."""
        candidates = self.candidates
        return TaskSelectionProblem(
            origin=Point(*self.origins[j].tolist()),
            candidates=tuple([candidates[i] for i in self.columns[j].tolist()]),
            max_distance=float(self.max_distance[j]),
            cost_per_meter=float(self.cost_per_meter[j]),
            distance_matrix=self.distances[j],
        )
