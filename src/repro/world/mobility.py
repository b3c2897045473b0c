"""Mobility policies: where users start the next sensing round.

The paper never states how users move *between* rounds (Section VI fixes
walking speed and cost but not the inter-round dynamics), so the engine
delegates to a pluggable policy:

- :class:`FollowPathMobility` (default) — the user starts the next round
  wherever its selected path ended, which keeps the population spatially
  coherent over time and lets the demand mechanism pull users toward
  neglected regions.
- :class:`StationaryMobility` — the user snaps back to its home location
  every round (commuters sensing from a fixed spot).
- :class:`RandomWaypointMobility` — the user walks toward a random
  waypoint for the travel distance it did not spend on tasks, a standard
  mobility model for crowdsensing simulations.

A policy moves the whole population in one array call,
:meth:`MobilityPolicy.move`, which writes the rows it moves in place
in :attr:`World.positions <repro.world.generator.World.positions>` and
draws for them in arrival order.  Each built-in policy also keeps a
per-user :meth:`~MobilityPolicy.next_position` as the reference
``move`` must equal row by row, bit for bit and draw for draw (pinned
by a property test); the engine never calls it.

The ablation bench (``benchmarks/bench_ablations.py``) shows the headline
comparisons are insensitive to this choice.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.geometry.region import RectRegion
from repro.registry import Registry
from repro.world.user import MobileUser, UserTable


class MobilityPolicy(abc.ABC):
    """Decides where users stand at the start of the next round."""

    name: str = "abstract"

    @abc.abstractmethod
    def move(
        self,
        positions: np.ndarray,
        rows: np.ndarray,
        homes: np.ndarray,
        budgets: np.ndarray,
        region: RectRegion,
        rng: np.random.Generator,
    ) -> None:
        """Move ``rows`` to where they start the next round, in place.

        Args:
            positions: ``(n, 2)`` every population row's position, where
                its round ended (its last task if it walked a path, else
                where it stood); the policy overwrites its rows.
            rows: ``(k,)`` population rows of the users to move, in
                arrival order.
            homes: ``(n, 2)`` every population row's home.
            budgets: ``(n,)`` every row's ``speed * time_budget``.
            region: the deployment area (positions must stay inside).
            rng: the mobility random stream, drawn in ``rows`` order.
        """

    def next_position(
        self,
        user: MobileUser,
        location: Point,
        path: Sequence[Point],
        region: RectRegion,
        rng: np.random.Generator,
    ) -> Point:
        """One user's :meth:`move` from ``location`` along ``path`` (the
        points visited this round, empty if it sat out): the optional
        per-user reference the built-in policies keep for the tests."""
        raise NotImplementedError(f"{type(self).__name__} has no per-user reference")

    def bind(self, users: UserTable) -> None:
        """Resolve any per-row routing for a new population, whose rows
        are the rows of ``users``.  The engine calls it whenever its
        rows change; the default needs nothing."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class StationaryMobility(MobilityPolicy):
    """The user returns to its home location after every round."""

    name = "stationary"

    def move(self, positions, rows, homes, budgets, region, rng) -> None:
        positions[rows] = homes[rows]

    def next_position(self, user, location, path, region, rng) -> Point:
        return user.home


class FollowPathMobility(MobilityPolicy):
    """The user stays wherever its task path ended (paper-default here)."""

    name = "follow-path"

    def move(self, positions, rows, homes, budgets, region, rng) -> None:
        """Nothing to do: every row already stands where it ended."""

    def next_position(self, user, location, path, region, rng) -> Point:
        return path[-1] if path else location


class RandomWaypointMobility(MobilityPolicy):
    """The user wanders toward a random waypoint between rounds.

    After finishing its tasks (or sitting out), the user picks a uniform
    random waypoint in the region and walks toward it using a fraction of
    one round's travel allowance.
    """

    name = "random-waypoint"

    def __init__(self, wander_fraction: float = 0.5):
        if not 0.0 <= wander_fraction <= 1.0:
            raise ValueError(
                f"wander_fraction must be in [0, 1], got {wander_fraction}"
            )
        self.wander_fraction = wander_fraction

    def move(self, positions, rows, homes, budgets, region, rng) -> None:
        # One (k, 2) draw is the per-user x-then-y waypoint stream.
        waypoints = rng.uniform(
            (region.x_min, region.y_min), (region.x_max, region.y_max),
            size=(len(rows), 2),
        )
        strides = budgets[rows] * self.wander_fraction
        positions[rows] = region.clamp_points(
            _towards(positions[rows], waypoints, strides)
        )

    def next_position(self, user, location, path, region, rng) -> Point:
        start = path[-1] if path else location
        waypoint = region.sample(rng, 1)[0]
        stride = user.max_travel_distance * self.wander_fraction
        return region.clamp(start.towards(waypoint, stride))


def _towards(
    starts: np.ndarray, targets: np.ndarray, distances: np.ndarray
) -> np.ndarray:
    """:meth:`Point.towards` row by row, bit for bit: the separation is
    ``math.hypot`` per row (``np.hypot`` can differ in the last ulp)."""
    away = (starts - targets).T.tolist()
    total = np.fromiter(map(math.hypot, *away), dtype=float, count=len(starts))
    arrive = (total <= distances) | (total == 0.0)
    frac = distances / np.where(arrive, 1.0, total)
    moved = starts + (targets - starts) * frac[:, None]
    return np.where(arrive[:, None], targets, moved)


class MixedMobility(MobilityPolicy):
    """Routes each user to the policy of its population group.

    Built by the engine when a scenario declares a heterogeneous
    population: ``policies`` maps a group label to the policy its members
    follow, resolved through each user's ``group`` (users with no group,
    or a group not in the map, fall back to ``default``).

    :meth:`bind` resolves every row's policy once per population from
    the table's ``group`` column, and :meth:`move` makes one call per
    distinct policy over its rows.  Each policy draws for its rows in
    arrival order, so the draws equal the per-user order only while at
    most one policy instance draws: give every group of the same drawing
    policy the same instance (the engine shares one instance per
    mobility name).
    """

    name = "mixed"

    def __init__(
        self,
        policies: "Optional[Dict[str, MobilityPolicy]]" = None,
        default: "Optional[MobilityPolicy]" = None,
    ):
        self.policies: Dict[str, MobilityPolicy] = dict(policies or {})
        self.default: MobilityPolicy = default or FollowPathMobility()
        #: Each distinct policy instance once, the default first.
        self._members: List[MobilityPolicy] = list({
            id(policy): policy
            for policy in (self.default, *self.policies.values())
        }.values())
        self._route = np.zeros(0, dtype=np.intp)

    def policy_for(self, user: MobileUser) -> MobilityPolicy:
        group = getattr(user, "group", None)
        if group is not None and group in self.policies:
            return self.policies[group]
        return self.default

    def bind(self, users: UserTable) -> None:
        index = {id(member): i for i, member in enumerate(self._members)}
        # The default is member 0: every row without a routed group.
        route = np.zeros(len(users), dtype=np.intp)
        for group, policy in self.policies.items():
            route[users.group == group] = index[id(policy)]
        self._route = route

    def move(self, positions, rows, homes, budgets, region, rng) -> None:
        route = self._route[rows]
        for i, member in enumerate(self._members):
            mine = route == i
            if mine.any():
                member.move(positions, rows[mine], homes, budgets, region, rng)

    def next_position(self, user, location, path, region, rng) -> Point:
        return self.policy_for(user).next_position(
            user, location, path, region, rng
        )


MOBILITY: Registry[MobilityPolicy] = Registry("mobility policy")
for _cls in (StationaryMobility, FollowPathMobility, RandomWaypointMobility, MixedMobility):
    MOBILITY.register(_cls)


def make_mobility(name: str) -> MobilityPolicy:
    """Instantiate a mobility policy by its registry name.

    Raises:
        ValueError: for an unknown name (lists the valid ones).
    """
    return MOBILITY.create(name)
