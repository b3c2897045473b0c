"""Mobility policies: where a user starts the next sensing round.

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

Policies also declare which idle users they leave exactly in place
(:meth:`MobilityPolicy.stays_put_when_idle`), so the engine can skip
those calls at city scale without changing a single draw.

The ablation bench (``benchmarks/bench_ablations.py``) shows the headline
comparisons are insensitive to this choice.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.geometry.region import RectRegion
from repro.registry import Registry
from repro.world.user import MobileUser


class MobilityPolicy(abc.ABC):
    """Decides a user's position at the start of the next round."""

    name: str = "abstract"

    @abc.abstractmethod
    def next_position(
        self,
        user: MobileUser,
        path: Sequence[Point],
        region: RectRegion,
        rng: np.random.Generator,
    ) -> Point:
        """Return where ``user`` stands when the next round begins.

        Args:
            user: the user, positioned where this round started.
            path: the points the user visited this round, in order,
                *excluding* the starting position; empty if it sat out.
            region: the deployment area (positions must stay inside).
            rng: the engine's mobility random stream.
        """

    def stays_put_when_idle(self, user: MobileUser) -> bool:
        """Whether an idle ``user`` (empty path) would stay exactly put.

        The engine calls :meth:`next_position` only for users who walked
        a path or for whom this is false.  Returning true is a promise:
        ``next_position(user, [], region, rng)`` would return
        ``user.location`` itself (the same object) and draw nothing from
        ``rng``.  The default is false, which is always safe.
        """
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class StationaryMobility(MobilityPolicy):
    """The user returns to its home location after every round."""

    name = "stationary"

    def next_position(
        self,
        user: MobileUser,
        path: Sequence[Point],
        region: RectRegion,
        rng: np.random.Generator,
    ) -> Point:
        return user.home

    def stays_put_when_idle(self, user: MobileUser) -> bool:
        return user.location is user.home


class FollowPathMobility(MobilityPolicy):
    """The user stays wherever its task path ended (paper-default here)."""

    name = "follow-path"

    def next_position(
        self,
        user: MobileUser,
        path: Sequence[Point],
        region: RectRegion,
        rng: np.random.Generator,
    ) -> Point:
        if path:
            return path[-1]
        return user.location

    def stays_put_when_idle(self, user: MobileUser) -> bool:
        return True


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

    def next_position(
        self,
        user: MobileUser,
        path: Sequence[Point],
        region: RectRegion,
        rng: np.random.Generator,
    ) -> Point:
        start = path[-1] if path else user.location
        waypoint = region.sample(rng, 1)[0]
        stride = user.max_travel_distance * self.wander_fraction
        return region.clamp(start.towards(waypoint, stride))


class MixedMobility(MobilityPolicy):
    """Routes each user to the policy of its population group.

    Built by the engine when a scenario declares a heterogeneous
    population: ``policies`` maps a group label to the policy its members
    follow, resolved through :attr:`MobileUser.group` (users with no
    group, or a group not in the map, fall back to ``default``).
    """

    name = "mixed"

    def __init__(
        self,
        policies: "Optional[Dict[str, MobilityPolicy]]" = None,
        default: "Optional[MobilityPolicy]" = None,
    ):
        self.policies: Dict[str, MobilityPolicy] = dict(policies or {})
        self.default: MobilityPolicy = default or FollowPathMobility()

    def policy_for(self, user: MobileUser) -> MobilityPolicy:
        group = getattr(user, "group", None)
        if group is not None and group in self.policies:
            return self.policies[group]
        return self.default

    def next_position(
        self,
        user: MobileUser,
        path: Sequence[Point],
        region: RectRegion,
        rng: np.random.Generator,
    ) -> Point:
        return self.policy_for(user).next_position(user, path, region, rng)

    def stays_put_when_idle(self, user: MobileUser) -> bool:
        return self.policy_for(user).stays_put_when_idle(user)


MOBILITY: Registry[MobilityPolicy] = Registry("mobility policy")
for _cls in (StationaryMobility, FollowPathMobility, RandomWaypointMobility, MixedMobility):
    MOBILITY.register(_cls)


def make_mobility(name: str) -> MobilityPolicy:
    """Instantiate a mobility policy by its registry name.

    Raises:
        ValueError: for an unknown name (lists the valid ones).
    """
    return MOBILITY.create(name)
