"""Shared types for the task-selection solvers.

A solver consumes a :class:`~repro.selection.problem.TaskSelectionProblem`
and produces a :class:`Selection`: the ordered tasks to visit plus the
resulting distance/reward/cost accounting.  A whole
:class:`~repro.selection.problem.ProblemChunk` or
:class:`~repro.selection.problem.ProblemBlock` is answered as one
:class:`SelectionColumns` table, whose rows are :class:`Selection` views
built on access.  Solvers never touch world
objects directly — the engine translates tasks into plain
:class:`CandidateTask` records first, which keeps the solvers pure and
easy to test in isolation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.geometry.point import Point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.selection.problem import ProblemBlock, ProblemChunk, TaskSelectionProblem


@dataclass(frozen=True)
class CandidateTask:
    """One selectable task as the solver sees it: id, location, price."""

    task_id: int
    location: Point
    reward: float

    def __post_init__(self) -> None:
        if self.reward < 0:
            raise ValueError(f"reward must be non-negative, got {self.reward}")


@dataclass(frozen=True)
class Selection:
    """The outcome of one user's task selection for one round.

    Args:
        task_ids: the selected task ids in *visit order*.
        distance: total travel distance of the origin-anchored path (m).
        reward: sum of the selected tasks' rewards ($).
        cost: movement cost ($) — ``distance * cost_per_meter``.
    """

    task_ids: Tuple[int, ...]
    distance: float
    reward: float
    cost: float

    def __post_init__(self) -> None:
        if self.distance < 0 or self.reward < 0 or self.cost < 0:
            raise ValueError(
                f"distance/reward/cost must be non-negative, got "
                f"{self.distance}/{self.reward}/{self.cost}"
            )
        if len(set(self.task_ids)) != len(self.task_ids):
            raise ValueError(f"duplicate task ids in selection: {self.task_ids}")

    @property
    def profit(self) -> float:
        """The user's profit :math:`P = \\sum r_t - C` (Eq. 1 objective)."""
        return self.reward - self.cost

    @property
    def is_empty(self) -> bool:
        return not self.task_ids

    def __len__(self) -> int:
        return len(self.task_ids)

    @classmethod
    def empty(cls) -> "Selection":
        """The sit-out selection: travel nothing, earn nothing.

        Returns a per-class singleton: the instance is frozen, and
        every selector answers an empty problem with it.
        """
        cached = cls.__dict__.get("_EMPTY")
        if cached is None:
            cached = cls(task_ids=(), distance=0.0, reward=0.0, cost=0.0)
            cls._EMPTY = cached
        return cached


class SelectionColumns(Sequence):
    """n selections stored as columns, in row order.

    Row ``j`` visits ``task_ids[offsets[j]:offsets[j + 1]]`` in that
    order (CSR), and ``distance``, ``reward`` and ``cost`` are its
    float64 accounting.  A row is built into a :class:`Selection` only
    when indexed or iterated; compares equal to any sequence of equal
    selections.

    Args:
        offsets: ``(n + 1,)`` int64 row starts in ``task_ids``, from 0.
        task_ids: every row's task ids, row after row.
        distance: ``(n,)`` path lengths.
        reward: ``(n,)`` reward sums.
        cost: ``(n,)`` movement costs.
        check: validate the columns (off only for columns gathered from
            validated ones).

    Raises:
        ValueError: for misaligned columns, a negative (or NaN)
            distance, reward or cost, or a task id repeated within a row
            — naming the first offending row's values.
    """

    def __init__(self, offsets, task_ids, distance, reward, cost, check=True):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.task_ids = np.asarray(task_ids, dtype=np.int64)
        self.distance = np.asarray(distance, dtype=np.float64)
        self.reward = np.asarray(reward, dtype=np.float64)
        self.cost = np.asarray(cost, dtype=np.float64)
        if check:
            self._check()

    def _check(self) -> None:
        n, offsets, ids = len(self), self.offsets, self.task_ids
        sizes = (int(offsets[0]), int(offsets[-1]), len(self.distance),
                 len(self.reward), len(self.cost))
        if sizes != (0, len(ids), n, n, n):
            raise ValueError(
                f"misaligned selection columns: offsets from {sizes[0]} to "
                f"{sizes[1]} over {len(ids)} task ids, and {sizes[2:]} "
                f"distances/rewards/costs for {n} rows"
            )
        # ``~(x >= 0)`` also refuses NaN (a null in a replayed log).
        negative = ~(
            (self.distance >= 0) & (self.reward >= 0) & (self.cost >= 0)
        )
        if negative.any():
            j = int(negative.argmax())
            raise ValueError(
                f"distance/reward/cost must be non-negative, got "
                f"{self.distance[j]}/{self.reward[j]}/{self.cost[j]}"
            )
        lengths = np.diff(offsets)
        if not len(ids) or lengths.max() < 2:
            return
        # A repeat within a row is two equal (row, id) pairs: one sort
        # of a combined key when it fits int64, a lexsort otherwise.
        rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
        low, high = int(ids.min()), int(ids.max())
        if (high - low + 1) * n < 1 << 62:
            keys = np.sort(rows * (high - low + 1) + (ids - low))
            repeats = keys[1:] == keys[:-1]
            first = keys[repeats.argmax()] // (high - low + 1)
        else:
            order = np.lexsort((ids, rows))
            rows, pairs = rows[order], ids[order]
            repeats = (rows[1:] == rows[:-1]) & (pairs[1:] == pairs[:-1])
            first = rows[repeats.argmax()]
        if repeats.any():
            start, stop = offsets[first:first + 2].tolist()
            raise ValueError(
                f"duplicate task ids in selection: "
                f"{tuple(ids[start:stop].tolist())}"
            )

    @classmethod
    def empty(cls, n: int) -> "SelectionColumns":
        """``n`` sit-out rows: no task, nothing travelled or earned."""
        zeros = np.zeros(n)
        return cls(np.zeros(n + 1, dtype=np.int64), (), zeros, zeros, zeros,
                   check=False)

    @classmethod
    def from_selections(cls, selections: Iterable[Selection]) -> "SelectionColumns":
        """Columns holding ``selections`` (each already validated)."""
        selections = list(selections)
        n = len(selections)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, selections), dtype=np.int64, count=n),
            out=offsets[1:],
        )
        return cls(
            offsets,
            np.fromiter(
                chain.from_iterable(s.task_ids for s in selections),
                dtype=np.int64, count=int(offsets[-1]),
            ),
            np.fromiter((s.distance for s in selections), dtype=float, count=n),
            np.fromiter((s.reward for s in selections), dtype=float, count=n),
            np.fromiter((s.cost for s in selections), dtype=float, count=n),
            check=False,
        )

    @classmethod
    def scatter(
        cls, n: int, parts: Iterable[Tuple[np.ndarray, "SelectionColumns"]]
    ) -> "SelectionColumns":
        """``n`` rows: each part's selections at its ``rows``, sit-outs
        elsewhere (parts cover disjoint rows)."""
        parts = list(parts)
        lengths = np.zeros(n, dtype=np.int64)
        distance, reward, cost = np.zeros(n), np.zeros(n), np.zeros(n)
        for rows, part in parts:
            lengths[rows] = part.lengths
            distance[rows] = part.distance
            reward[rows] = part.reward
            cost[rows] = part.cost
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        task_ids = np.empty(int(offsets[-1]), dtype=np.int64)
        for rows, part in parts:
            into = np.repeat(offsets[rows] - part.offsets[:-1], part.lengths)
            into += np.arange(len(into))
            task_ids[into] = part.task_ids
        return cls(offsets, task_ids, distance, reward, cost, check=False)

    @property
    def lengths(self) -> np.ndarray:
        """``(n,)`` task count of each row."""
        return np.diff(self.offsets)

    def take(self, rows: np.ndarray) -> "SelectionColumns":
        """The selections of ``rows``, in that order."""
        lengths = self.lengths[rows]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        flat = np.repeat(self.offsets[rows] - offsets[:-1], lengths)
        flat += np.arange(len(flat))
        return SelectionColumns(
            offsets, self.task_ids[flat], self.distance[rows],
            self.reward[rows], self.cost[rows], check=False,
        )

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, index: int) -> Selection:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("selection index out of range")
        start, stop = self.offsets[index:index + 2].tolist()
        return Selection(
            tuple(self.task_ids[start:stop].tolist()),
            self.distance[index].item(),
            self.reward[index].item(),
            self.cost[index].item(),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, list, SelectionColumns)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"SelectionColumns({tuple(self)!r})"


class Selector(abc.ABC):
    """A task-selection algorithm.

    Implementations must be deterministic functions of the problem: the
    engine relies on replayability for seeded experiments.
    """

    #: registry name, used in experiment rows and the CLI
    name: str = "abstract"

    @abc.abstractmethod
    def select(self, problem: "TaskSelectionProblem") -> Selection:
        """Return the tasks to perform (possibly :meth:`Selection.empty`).

        Contract (checked by the property tests):
          - ``distance <= problem.max_distance`` (time-budget feasibility),
          - the reported distance/reward/cost match the returned order,
          - a rational user: ``profit > 0`` or the selection is empty.
        """

    def select_block(self, block: "ProblemBlock") -> SelectionColumns:
        """Every row of ``block`` answered, as one columnar table.

        Row ``j`` must equal ``self.select(block.problem(j))``, which is
        this default: it builds the columns from the per-row answers.
        The exact DP overrides it with its one pass over every row's
        states; the rest, and wrappers such as the watchdog, answer row
        by row.
        """
        return SelectionColumns.from_selections(
            self.select(block.problem(j)) for j in range(len(block))
        )

    def select_chunk(self, chunk: "ProblemChunk") -> SelectionColumns:
        """Every row of ``chunk`` answered, as one table in chunk order.

        This default answers :meth:`ProblemChunk.blocks
        <repro.selection.problem.ProblemChunk.blocks>` block by block.
        A solver that gains from solving a whole assembly chunk together
        overrides it — the greedy as one ragged pass over the candidate
        pairs, the exact DP in shared padded passes — and the engine
        then hands it a whole chunk per call; any other solver gets one
        :meth:`select_block` call per block.
        """
        return SelectionColumns.scatter(len(chunk), [
            (rows, self.select_block(block)) for rows, block in chunk.blocks()
        ])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
