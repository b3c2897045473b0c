"""The mobile users (workers) of the crowdsensing system.

A user is a few numbers (Section III, Eq. 1): an immutable home, a
walking speed, a movement cost per meter, a per-round time budget and
its population group.  :class:`UserTable` holds them as columns (it is
``World.users``, what the engine reads); :class:`MobileUser` is one row
as a frozen value for the API boundary.  Where a user stands is
``World.positions``; what it earned is the run ledger's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.geometry.point import Point


def check_users(ids, speed, cost_per_meter, time_budget) -> None:
    """Validate user columns (:func:`check_rows`; NaN breaks all)."""
    check_rows("user", ids, (
        ("user_id", "must be non-negative", ids, ids >= 0),
        ("speed", "must be positive", speed, speed > 0),
        ("cost_per_meter", "must be non-negative", cost_per_meter, cost_per_meter >= 0),
        ("time_budget", "must be non-negative", time_budget, time_budget >= 0),
    ))


def check_rows(kind: str, ids: np.ndarray, rules) -> None:
    """Apply ``(column name, rule, column, ok mask)`` rules to a table.

    Raises:
        ValueError: for the first row breaking a rule (in rule order
            within the row), naming the column and value, and for more
            than one row also the row and its ``kind`` id.
    """
    bad = ~np.logical_and.reduce([ok for *_, ok in rules])
    if bad.any():
        row = int(np.argmax(bad))
        name, rule, column, _ = next(r for r in rules if not r[3][row])
        where = f" (row {row}, {kind} {ids[row]})" if len(bad) > 1 else ""
        raise ValueError(f"{name} {rule}, got {column[row].item()}{where}")


def id_order(kind: str, ids: np.ndarray) -> Optional[np.ndarray]:
    """The permutation putting ``ids`` in ascending order (None if they
    already are).

    Raises:
        ValueError: for a repeated id, naming it and its first two rows.
    """
    if (ids[1:] > ids[:-1]).all():
        return None
    order = np.argsort(ids, kind="stable")
    repeated = np.flatnonzero(ids[order][1:] == ids[order][:-1])
    if len(repeated):
        first, second = order[repeated[0]:repeated[0] + 2].tolist()
        raise ValueError(
            f"{kind}_id {ids[first]} is repeated: rows {first} and {second}"
        )
    return order


@dataclass(frozen=True)
class MobileUser:
    """A mobile user :math:`u_i`: one row of a :class:`UserTable`.

    Args:
        user_id: unique non-negative integer id.
        home: where the user starts the run (and where stationary
            users return every round).
        speed: walking speed in m/s (paper default 2 m/s).
        cost_per_meter: movement cost in $/m (paper default 0.002 $/m).
        time_budget: per-round time budget :math:`B^k_{u_i}` in seconds.
        group: population-group name for heterogeneous crowds (None =
            the base population; see :mod:`repro.world.population`).
    """

    user_id: int
    home: Point
    speed: float
    cost_per_meter: float
    time_budget: float
    group: Optional[str] = None

    def __post_init__(self) -> None:
        check_users(*(np.array([value]) for value in (
            self.user_id, self.speed, self.cost_per_meter, self.time_budget
        )))

    # -- budget geometry -------------------------------------------------

    @property
    def max_travel_distance(self) -> float:
        """Farthest total distance reachable in one round: speed x budget."""
        return self.speed * self.time_budget

    def travel_time(self, distance: float) -> float:
        """Seconds needed to walk ``distance`` meters."""
        return distance / self.speed

    def travel_cost(self, distance: float) -> float:
        """Dollar cost of walking ``distance`` meters."""
        return distance * self.cost_per_meter


def _row(user_id, x, y, speed, cost_per_meter, time_budget, group) -> MobileUser:
    """A row of an already validated table, built without re-checking."""
    user = object.__new__(MobileUser)
    user.__dict__.update(
        user_id=user_id, home=Point(x, y), speed=speed,
        cost_per_meter=cost_per_meter, time_budget=time_budget, group=group,
    )
    return user


#: The stored columns, in constructor order.
_COLUMNS = ("ids", "homes", "speed", "cost_per_meter", "time_budget", "group")


class UserTable:
    """A population as read-only columns, one row per user: int64
    ``ids``, float64 ``homes`` ``(n, 2)``, ``speed``, ``cost_per_meter``
    and ``time_budget``, and object ``group`` (None: base population).

    Derived once: ``budgets`` (``speed * time_budget``, bit-equal to
    :attr:`MobileUser.max_travel_distance`) and ``id_order``, the
    permutation putting rows in ``user_id`` order (None if they are).
    ``table[i]`` and iteration give :class:`MobileUser` rows with Python
    ``int``/``float`` fields; a slice, a mask or :meth:`take` a table.
    Construction raises ``ValueError`` as :func:`check_users` does, for
    a repeated user id, or for columns of different lengths.
    """

    __slots__ = _COLUMNS + ("budgets", "id_order")

    def __init__(self, ids, homes, speed, cost_per_meter, time_budget, group=None):
        n = len(ids)
        if group is None:
            group = [None] * n
        for name, values, dtype in zip(
            _COLUMNS, (ids, homes, speed, cost_per_meter, time_budget, group),
            (np.int64, float, float, float, float, object),
        ):
            column = np.array(values, dtype=dtype)
            if len(column) != n:
                raise ValueError(f"{name} has {len(column)} rows, ids {n}")
            column.flags.writeable = False
            setattr(self, name, column)
        self.homes = self.homes.reshape(n, 2)
        check_users(self.ids, self.speed, self.cost_per_meter, self.time_budget)
        self.budgets = self.speed * self.time_budget
        self.budgets.flags.writeable = False
        self.id_order = id_order("user", self.ids)

    @classmethod
    def empty(cls) -> "UserTable":
        return cls([], [], [], [], [])

    @classmethod
    def from_users(cls, users: Iterable[MobileUser]) -> "UserTable":
        """The table of hand-built users, in their order."""
        users = list(users)
        return cls(
            [u.user_id for u in users], [(u.home.x, u.home.y) for u in users],
            [u.speed for u in users], [u.cost_per_meter for u in users],
            [u.time_budget for u in users], [u.group for u in users],
        )

    @classmethod
    def concatenate(cls, tables: Sequence["UserTable"]) -> "UserTable":
        """The rows of ``tables``, one table after another."""
        return cls(*(
            np.concatenate([getattr(t, name) for t in tables]) for name in _COLUMNS
        ))

    def take(self, rows) -> "UserTable":
        """The table of ``rows``: indices, a boolean mask or a slice."""
        return UserTable(*(getattr(self, name)[rows] for name in _COLUMNS))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        if not isinstance(key, (int, np.integer)):
            return self.take(key)
        row = range(len(self))[key]  # negative keys; IndexError past the end
        return next(self._rows(slice(row, row + 1)))

    def __iter__(self) -> Iterator[MobileUser]:
        return self._rows(slice(None))

    def _rows(self, rows: slice) -> Iterator[MobileUser]:
        """Row views of ``rows``, with Python scalars (``tolist``)."""
        xs, ys = self.homes[rows].T.tolist()
        return map(
            _row, self.ids[rows].tolist(), xs, ys, self.speed[rows].tolist(),
            self.cost_per_meter[rows].tolist(), self.time_budget[rows].tolist(),
            self.group[rows].tolist(),
        )
