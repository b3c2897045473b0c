"""Unit tests for repro.world.mobility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.region import RectRegion
from repro.world.mobility import (
    MOBILITY,
    FollowPathMobility,
    MixedMobility,
    RandomWaypointMobility,
    StationaryMobility,
    make_mobility,
)
from tests.conftest import make_user


@pytest.fixture
def square():
    return RectRegion.square(1000.0)


class TestStationary:
    def test_returns_home_after_travel(self, square, rng):
        user = make_user(x=100.0, y=100.0)
        path = [Point(500.0, 500.0), Point(700.0, 700.0)]
        assert StationaryMobility().next_position(user, path, square, rng) == user.home

    def test_returns_home_even_when_idle(self, square, rng):
        user = make_user(x=100.0, y=100.0)
        user.location = Point(300.0, 300.0)
        assert StationaryMobility().next_position(user, [], square, rng) == user.home


class TestFollowPath:
    def test_ends_at_last_task(self, square, rng):
        user = make_user()
        path = [Point(10.0, 10.0), Point(20.0, 5.0)]
        assert FollowPathMobility().next_position(user, path, square, rng) == path[-1]

    def test_stays_put_when_idle(self, square, rng):
        user = make_user(x=42.0, y=24.0)
        assert FollowPathMobility().next_position(user, [], square, rng) == user.location


class TestRandomWaypoint:
    def test_result_stays_in_region(self, square, rng):
        policy = RandomWaypointMobility()
        user = make_user(x=900.0, y=900.0)
        for _ in range(20):
            position = policy.next_position(user, [], square, rng)
            assert square.contains(position)

    def test_moves_at_most_wander_fraction(self, square, rng):
        policy = RandomWaypointMobility(wander_fraction=0.25)
        user = make_user(x=500.0, y=500.0, speed=2.0, time_budget=900.0)
        limit = 0.25 * user.max_travel_distance
        for _ in range(20):
            position = policy.next_position(user, [], square, rng)
            assert user.location.distance_to(position) <= limit + 1e-9

    def test_starts_from_path_end(self, square, rng):
        policy = RandomWaypointMobility(wander_fraction=0.0)
        user = make_user()
        path_end = Point(321.0, 123.0)
        assert policy.next_position(user, [path_end], square, rng) == path_end

    def test_wander_fraction_validated(self):
        with pytest.raises(ValueError, match="wander_fraction"):
            RandomWaypointMobility(wander_fraction=1.5)

    def test_deterministic_per_seed(self, square):
        user = make_user(x=500.0, y=500.0)
        a = RandomWaypointMobility().next_position(
            user, [], square, np.random.Generator(np.random.PCG64(9))
        )
        b = RandomWaypointMobility().next_position(
            user, [], square, np.random.Generator(np.random.PCG64(9))
        )
        assert a == b


class TestFactory:
    def test_all_names_resolve(self):
        for name in ("stationary", "follow-path", "random-waypoint"):
            assert make_mobility(name).name == name

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="follow-path"):
            make_mobility("teleport")


# -- the idle-user contract the sparse round relies on ----------------------

_GROUPS = (None, "stationary", "follow-path", "random-waypoint", "unknown")
_MIXED = MixedMobility(
    {name: make_mobility(name) for name in _GROUPS[1:4]},
    default=FollowPathMobility(),
)
_POLICIES = [make_mobility(name) for name in MOBILITY.available()] + [_MIXED]


@settings(max_examples=60, deadline=None)
@given(
    policy=st.sampled_from(_POLICIES),
    home=st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0)),
    away=st.one_of(
        st.none(), st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0))
    ),
    group=st.sampled_from(_GROUPS),
    seed=st.integers(0, 2**32 - 1),
)
def test_idle_users_that_stay_put_are_untouched(policy, home, away, group, seed):
    """stays_put_when_idle(user) is a promise: the idle call would return
    the user's own location object and draw nothing from the stream."""
    user = make_user(x=home[0], y=home[1])
    user.group = group
    if away is not None:
        user.location = Point(*away)
    region = RectRegion.square(1000.0)
    rng = np.random.default_rng(seed)
    before = rng.bit_generator.state
    if not policy.stays_put_when_idle(user):
        return
    assert policy.next_position(user, [], region, rng) is user.location
    assert rng.bit_generator.state == before


def test_stays_put_answers():
    user = make_user()
    assert StationaryMobility().stays_put_when_idle(user)
    assert FollowPathMobility().stays_put_when_idle(user)
    assert not RandomWaypointMobility().stays_put_when_idle(user)
    user.location = Point(5.0, 5.0)
    assert not StationaryMobility().stays_put_when_idle(user)
    user.group = "random-waypoint"
    assert not _MIXED.stays_put_when_idle(user)
    user.group = "unknown"
    assert _MIXED.stays_put_when_idle(user)
