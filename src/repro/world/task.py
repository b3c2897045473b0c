"""The location-dependent sensing tasks.

A task is a few static numbers (Section III-C of the paper): a location
:math:`L_{t_i}`, a deadline :math:`\\tau_i`, a required measurement
count :math:`\\varphi_i` and a release round.  Its sensing state is who
contributed when.  :class:`TaskTable` holds the numbers as columns and
the state as one contribution log of ``(row, user_id, round)`` entries
plus an expired flag per row (it is ``World.tasks``, what the engine
reads); received :math:`\\pi_i`, remaining, progress, status,
completion round and contributors all derive from them.  The engine
appends to the log once per round through the one writer,
:meth:`TaskTable.record`.  :class:`SensingTask` is one row as a frozen
value for the API boundary.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.world.user import check_rows, id_order


class TaskStatus(enum.Enum):
    """Lifecycle of a task within one simulation.

    ``ACTIVE``    — published; accepts measurements.
    ``COMPLETED`` — received its required measurements; no longer published.
    ``EXPIRED``   — its deadline passed before completion; no longer published.
    """

    ACTIVE = "active"
    COMPLETED = "completed"
    EXPIRED = "expired"


def check_tasks(ids, deadline, required, release) -> None:
    """Validate task columns (:func:`~repro.world.user.check_rows`)."""
    check_rows("task", ids, (
        ("task_id", "must be non-negative", ids, ids >= 0),
        ("deadline", "must be >= 1 round", deadline, deadline >= 1),
        ("required_measurements", "must be >= 1", required, required >= 1),
        ("release_round", "must be in [1, deadline]", release,
         (release >= 1) & (release <= deadline)),
    ))


@dataclass(frozen=True)
class SensingTask:
    """A location-dependent sensing task :math:`t_i`: one row of a
    :class:`TaskTable`.

    Args:
        task_id: unique non-negative integer id.
        location: where the measurement must be taken (:math:`L_{t_i}`).
        deadline: last round (1-based, inclusive) by which the task should
            be complete (:math:`\\tau_i` / :math:`D_{t_i}`).
        required_measurements: number of independent measurements needed
            (:math:`\\varphi_i`); each user contributes at most once.
        release_round: first round (1-based) at which the platform
            publishes the task.  The paper releases everything at round 1;
            later releases model the streaming-arrival setting its related
            work ([20]) studies.  Must not exceed the deadline.

    The remaining fields are the row's sensing state as its table held
    it when the row was read (a hand-built task has none yet).
    """

    task_id: int
    location: Point
    deadline: int
    required_measurements: int
    release_round: int = 1
    status: TaskStatus = field(default=TaskStatus.ACTIVE, init=False)
    received: int = field(default=0, init=False)
    completed_round: int = field(default=0, init=False)  # 0: not completed
    contributors: FrozenSet[int] = field(default=frozenset(), init=False)
    measurements_by_round: Dict[int, int] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        check_tasks(*(np.array([value]) for value in (
            self.task_id, self.deadline, self.required_measurements,
            self.release_round,
        )))

    @property
    def remaining(self) -> int:
        """Measurements still needed to complete the task."""
        return max(0, self.required_measurements - self.received)


def _row(task_id, x, y, deadline, required, release, status, received,
         completed_round, log) -> SensingTask:
    """A row of an already validated table, built without re-checking;
    ``log`` is its ``(user_id, round)`` entries in log order."""
    task = object.__new__(SensingTask)
    task.__dict__.update(
        task_id=task_id, location=Point(x, y), deadline=deadline,
        required_measurements=required, release_round=release, status=status,
        received=received, completed_round=completed_round,
        contributors=frozenset(user for user, _ in log),
        measurements_by_round=dict(Counter(round_no for _, round_no in log)),
    )
    return task


def running_counts(groups: np.ndarray, counted: np.ndarray) -> np.ndarray:
    """For each element, how many earlier elements of its group are
    ``counted`` (a running count within each group, in element order)."""
    order = np.argsort(groups, kind="stable")
    taken = counted[order].astype(np.int64)
    running = np.cumsum(taken) - taken
    # The sorted position where each element's group starts.
    sorted_groups = groups[order]
    starts = np.arange(len(order))
    starts[1:][sorted_groups[1:] == sorted_groups[:-1]] = 0
    np.maximum.accumulate(starts, out=starts)
    before = np.empty_like(running)
    before[order] = running - running[starts]
    return before


#: The static columns, in constructor order; the key past every log key.
_COLUMNS = ("ids", "locations", "deadline", "required", "release")
_STATUSES = tuple(TaskStatus)
_END = np.iinfo(np.int64).max


class TaskTable:
    """Tasks as columns, one row per task: int64 ``ids``, float64
    ``locations`` ``(n, 2)``, ``deadline``, ``required`` and ``release``
    (read-only but for ``deadline``, which a renewal rewrites).

    The sensing state is the contribution log ``log``, int64 ``(row,
    user_id, round)`` triples ``(m, 3)``, one per accepted measurement,
    written only by :meth:`record` and kept in ``(row, user_id)``
    order, and the bool ``expired`` column.  Every other state, the
    received count included, derives from them on read.  ``id_order``
    puts the rows in ``task_id`` order (None if they are).

    ``table[i]`` and iteration give :class:`SensingTask` rows; a slice,
    a mask or :meth:`take` a table carrying its rows' state.
    Construction raises ``ValueError`` as :func:`check_tasks` does, for
    a repeated task id, or for columns of different lengths.
    """

    __slots__ = _COLUMNS + ("log", "expired", "id_order")

    def __init__(self, ids, locations, deadline, required, release=None):
        n = len(ids)
        if release is None:
            release = np.ones(n, dtype=np.int64)
        for name, values in zip(_COLUMNS, (ids, locations, deadline, required, release)):
            column = np.array(values, dtype=float if name == "locations" else np.int64)
            if len(column) != n:
                raise ValueError(f"{name} has {len(column)} rows, ids {n}")
            column.flags.writeable = name == "deadline"
            setattr(self, name, column)
        self.locations = self.locations.reshape(n, 2)
        check_tasks(self.ids, self.deadline, self.required, self.release)
        self.id_order = id_order("task", self.ids)
        self.expired = np.zeros(n, dtype=bool)
        self.log = np.zeros((0, 3), dtype=np.int64)

    @classmethod
    def empty(cls) -> "TaskTable":
        return cls([], [], [], [])

    @classmethod
    def from_tasks(cls, tasks: Iterable[SensingTask]) -> "TaskTable":
        """The table of hand-built tasks, in their order (no state yet)."""
        tasks = list(tasks)
        return cls(
            [t.task_id for t in tasks],
            [(t.location.x, t.location.y) for t in tasks],
            [t.deadline for t in tasks], [t.required_measurements for t in tasks],
            [t.release_round for t in tasks],
        )

    @classmethod
    def concatenate(cls, tables: Sequence["TaskTable"]) -> "TaskTable":
        """The rows of ``tables`` with their state, one after another."""
        table = cls(*(
            np.concatenate([getattr(t, name) for t in tables]) for name in _COLUMNS
        ))
        starts = np.cumsum([0] + [len(t) for t in tables[:-1]])
        table.log = np.concatenate(
            [t.log + (start, 0, 0) for t, start in zip(tables, starts)]
        )
        table.expired = np.concatenate([t.expired for t in tables])
        return table

    def take(self, rows) -> "TaskTable":
        """The table of ``rows`` (indices, a boolean mask or a slice),
        with their state: the log entries of those rows, renumbered."""
        table = object.__new__(TaskTable)  # rows of a checked table
        for name in _COLUMNS + ("expired",):
            column = getattr(self, name)
            setattr(table, name, column[rows].copy())
            getattr(table, name).flags.writeable = column.flags.writeable
        table.id_order = id_order("task", table.ids)
        renumber = np.full(len(self), -1, dtype=np.int64)
        renumber[rows] = np.arange(len(table))
        log = self.log[renumber[self.log[:, 0]] >= 0]
        log[:, 0] = renumber[log[:, 0]]
        if np.asarray(rows).dtype != bool:  # a mask keeps the log order
            log = log[np.lexsort((log[:, 1], log[:, 0]))]
        table.log = log
        return table

    # -- derived state --------------------------------------------------

    @property
    def received(self) -> np.ndarray:
        """Measurements each task received (:math:`\\pi_i`)."""
        return np.bincount(self.log[:, 0], minlength=len(self))

    @property
    def remaining(self) -> np.ndarray:
        """Measurements each task still needs."""
        return np.maximum(self.required - self.received, 0)

    @property
    def completed(self) -> np.ndarray:
        """Received every required measurement."""
        return self.received >= self.required

    @property
    def active(self) -> np.ndarray:
        """Neither completed nor expired (published or not)."""
        return ~self.expired & ~self.completed

    def published(self, round_no: int) -> np.ndarray:
        """The mask of tasks the platform offers in round ``round_no``:
        active and released."""
        return self.active & (self.release <= round_no)

    def statuses(self) -> List[TaskStatus]:
        """Each row's :class:`TaskStatus`."""
        return [
            _STATUSES[code]
            for code in np.where(self.expired, 2, self.completed).tolist()
        ]

    def received_by(self, cutoffs: np.ndarray) -> np.ndarray:
        """Measurements each task received at rounds ``<= cutoffs[row]``."""
        rows, _, rounds = self.log.T
        return np.bincount(rows[rounds <= cutoffs[rows]], minlength=len(self))

    def rows_of(self, task_ids: np.ndarray) -> np.ndarray:
        """Each task id's row (-1 for ids not in the table)."""
        if not len(self):
            return np.full(len(task_ids), -1, dtype=np.int64)
        at = np.minimum(
            np.searchsorted(self.ids, task_ids, sorter=self.id_order), len(self) - 1
        )
        rows = at if self.id_order is None else self.id_order[at]
        return np.where(self.ids[rows] == task_ids, rows, -1)

    def _keys(self, rows: np.ndarray, user_ids: np.ndarray):
        """``(row, user_id)`` pairs and the log as ascending int64 keys,
        the log's ended by a key past all others."""
        span = int(max(user_ids.max(initial=0), self.log[:, 1].max(initial=0))) + 1
        log_keys = np.append(self.log[:, 0] * span + self.log[:, 1], _END)
        return rows * span + user_ids, log_keys

    def contributed(self, rows: np.ndarray, user_ids: np.ndarray) -> np.ndarray:
        """Per ``(rows[j], user_ids[j])`` pair: whether the user already
        contributed to the task."""
        keys, log_keys = self._keys(rows, user_ids)
        return log_keys[np.searchsorted(log_keys, keys)] == keys

    # -- the one writer -------------------------------------------------

    def record(self, rows, user_ids, round_no: int) -> None:
        """Accept one measurement from ``user_ids[j]`` at task row
        ``rows[j]``, in order, at round ``round_no``.

        The batch is all or nothing: it is checked as if the users
        uploaded one by one, and nothing is recorded unless every upload
        would be accepted (the paper's one-measurement-per-user rule,
        Section III-A, and at most :math:`\\varphi_i` per task).

        Raises:
            ValueError: naming the first pair a one-by-one walk would
                refuse — its task is expired or already full, or its
                user contributed to it before (earlier in the batch
                included).
        """
        rows = np.asarray(rows, dtype=np.int64)
        user_ids = np.asarray(user_ids, dtype=np.int64)
        keys, log_keys = self._keys(rows, user_ids)
        at = np.searchsorted(log_keys, keys)
        # In key order a pair repeated in the batch follows its first
        # occurrence (the sort is stable).
        order = np.argsort(keys, kind="stable")
        seen = log_keys[at] == keys
        seen[order[1:]] |= keys[order][1:] == keys[order][:-1]
        already = self.received
        if (
            seen.any() or self.expired[rows].any()
            or (already + np.bincount(rows, minlength=len(self)) > self.required).any()
        ):
            received = already[rows] + running_counts(rows, np.ones(len(rows), bool))
            refused = seen | self.expired[rows] | (received >= self.required[rows])
            first = int(np.argmax(refused))
            row = rows[first]
            raise ValueError(
                f"task {self.ids[row]} cannot accept a measurement from user "
                f"{user_ids[first]} (status={self.statuses()[row].value}, "
                f"received={received[first]}/{self.required[row]})"
            )
        triples = np.column_stack([rows, user_ids, np.full(len(rows), round_no)])
        self.log = np.insert(self.log, at[order], triples[order], axis=0)

    # -- rows -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        if not isinstance(key, (int, np.integer)):
            return self.take(key)
        row = range(len(self))[key]  # negative keys; IndexError past the end
        return next(iter(self.take([row])))

    def __iter__(self) -> Iterator[SensingTask]:
        logs = [[] for _ in range(len(self))]
        by_round = np.argsort(self.log[:, 2], kind="stable")
        for row, user, round_no in self.log[by_round].tolist():
            logs[row].append((user, round_no))
        completed_round = np.zeros(len(self), dtype=np.int64)
        np.maximum.at(completed_round, self.log[:, 0], self.log[:, 2])
        completed_round[~self.completed] = 0
        xs, ys = self.locations.T.tolist()
        return map(
            _row, self.ids.tolist(), xs, ys, self.deadline.tolist(),
            self.required.tolist(), self.release.tolist(), self.statuses(),
            self.received.tolist(), completed_round.tolist(), logs,
        )
