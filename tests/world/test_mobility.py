"""Unit tests for repro.world.mobility."""

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from repro.world.user import MobileUser, UserTable
from tests.conftest import make_user


@pytest.fixture
def square():
    return RectRegion.square(1000.0)


class TestStationary:
    def test_returns_home_after_travel(self, square, rng):
        user = make_user(x=100.0, y=100.0)
        path = [Point(500.0, 500.0), Point(700.0, 700.0)]
        assert StationaryMobility().next_position(
            user, user.home, path, square, rng
        ) == user.home

    def test_returns_home_even_when_idle(self, square, rng):
        user = make_user(x=100.0, y=100.0)
        away = Point(300.0, 300.0)
        assert StationaryMobility().next_position(
            user, away, [], square, rng
        ) == user.home


class TestFollowPath:
    def test_ends_at_last_task(self, square, rng):
        user = make_user()
        path = [Point(10.0, 10.0), Point(20.0, 5.0)]
        assert FollowPathMobility().next_position(
            user, user.home, path, square, rng
        ) == path[-1]

    def test_stays_put_when_idle(self, square, rng):
        user = make_user(x=42.0, y=24.0)
        here = Point(7.0, 8.0)
        assert FollowPathMobility().next_position(user, here, [], square, rng) == here


class TestRandomWaypoint:
    def test_result_stays_in_region(self, square, rng):
        policy = RandomWaypointMobility()
        user = make_user(x=900.0, y=900.0)
        for _ in range(20):
            position = policy.next_position(user, user.home, [], square, rng)
            assert square.contains(position)

    def test_moves_at_most_wander_fraction(self, square, rng):
        policy = RandomWaypointMobility(wander_fraction=0.25)
        user = make_user(x=500.0, y=500.0, speed=2.0, time_budget=900.0)
        limit = 0.25 * user.max_travel_distance
        for _ in range(20):
            position = policy.next_position(user, user.home, [], square, rng)
            assert user.home.distance_to(position) <= limit + 1e-9

    def test_starts_from_path_end(self, square, rng):
        policy = RandomWaypointMobility(wander_fraction=0.0)
        user = make_user()
        path_end = Point(321.0, 123.0)
        assert policy.next_position(
            user, user.home, [path_end], square, rng
        ) == path_end

    def test_wander_fraction_validated(self):
        with pytest.raises(ValueError, match="wander_fraction"):
            RandomWaypointMobility(wander_fraction=1.5)

    def test_deterministic_per_seed(self, square):
        user = make_user(x=500.0, y=500.0)
        a = RandomWaypointMobility().next_position(
            user, user.home, [], square, np.random.Generator(np.random.PCG64(9))
        )
        b = RandomWaypointMobility().next_position(
            user, user.home, [], square, np.random.Generator(np.random.PCG64(9))
        )
        assert a == b


class TestFactory:
    def test_all_names_resolve(self):
        for name in ("stationary", "follow-path", "random-waypoint"):
            assert make_mobility(name).name == name

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="follow-path"):
            make_mobility("teleport")


# -- move() against the per-user reference -----------------------------------

_GROUPS = (None, "stationary", "follow-path", "random-waypoint", "unknown")
_WANDER = make_mobility("random-waypoint")
#: Groups of one drawing policy share its instance, as the engine builds
#: them; the route resolves per row.
_MIXED = MixedMobility(
    {"stationary": make_mobility("stationary"), "random-waypoint": _WANDER,
     "wanderers": _WANDER},
    default=FollowPathMobility(),
)
_STILL = RandomWaypointMobility(wander_fraction=0.0)
_POLICIES = [make_mobility(name) for name in MOBILITY.available()] + [
    _MIXED, _STILL, RandomWaypointMobility(wander_fraction=1.0),
]
_SQUARE = RectRegion.square(1000.0)


def crowd(rows, region=_SQUARE):
    """A population from ``(home, location, path, time_budget, group)``
    rows; users get speed 2 m/s."""
    users = [
        MobileUser(user_id=i, home=Point(*home), speed=2.0,
                   cost_per_meter=0.002, time_budget=budget, group=group)
        for i, (home, _, _, budget, group) in enumerate(rows)
    ]
    locations = [Point(*location) for _, location, _, _, _ in rows]
    paths = [[Point(*p) for p in path] for _, _, path, _, _ in rows]
    return users, locations, paths, region


_coordinate = st.floats(-300.0, 1300.0, allow_nan=False)
_xy = st.tuples(_coordinate, _coordinate)


@st.composite
def crowds(draw):
    """0-12 users with homes, round-start locations and paths that may lie
    outside the region (so clamping bites), budgets from 0 to far past
    the region's diagonal, and any group."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        home = draw(_xy)
        rows.append((
            home,
            draw(st.one_of(st.just(home), _xy)),
            draw(st.lists(st.one_of(st.just(home), _xy), max_size=3)),
            # Mostly strides short of the waypoint: the interpolating
            # branch of towards is where rounding can differ.
            draw(st.one_of(st.floats(0.0, 300.0), st.floats(0.0, 2000.0))),
            draw(st.sampled_from(_GROUPS + ("wanderers",))),
        ))
    region = draw(st.sampled_from([
        _SQUARE, RectRegion(100.0, 200.0, 400.0, 300.0),
    ]))
    return crowd(rows, region)


#: Hand-picked crowds the property test always runs.
_EXAMPLES = {
    # Stride (2 m/s x 2000 s x fraction) reaches any waypoint.
    "stride-past-waypoint": crowd([((500.0, 500.0), (500.0, 500.0), [], 2000.0, None)]),
    # A one-point region: the waypoint is the start (towards' total == 0).
    "waypoint-is-start": crowd(
        [((5.0, 5.0), (5.0, 5.0), [], 900.0, None)] * 2,
        region=RectRegion(5.0, 5.0, 5.0, 5.0),
    ),
    # Zero budget from outside each edge: the clamp alone decides.
    "clamp-every-edge": crowd([
        ((0.0, 0.0), (-50.0, 500.0), [], 0.0, "random-waypoint"),
        ((0.0, 0.0), (1050.0, 500.0), [], 0.0, "random-waypoint"),
        ((0.0, 0.0), (500.0, -50.0), [], 0.0, "wanderers"),
        ((0.0, 0.0), (500.0, 1050.0), [], 0.0, "wanderers"),
    ]),
    # Idle users of every group, and a stationary user whose path ends
    # at its home.
    "idle-and-home-path": crowd([
        ((10.0, 20.0), (30.0, 40.0), [], 900.0, group) for group in _GROUPS
    ] + [
        ((10.0, 20.0), (30.0, 40.0), [(600.0, 600.0), (10.0, 20.0)], 900.0,
         "stationary"),
    ]),
}


def _bits(points):
    """Exact coordinates (``repr`` tells -0.0 from 0.0)."""
    return [(repr(x), repr(y)) for x, y in points]


class TestArrayMobilityEquivalence:
    """``move`` over every row in arrival order equals ``next_position``
    row by row: bit-equal coordinates and the same stream state after."""

    @given(
        world=crowds(),
        policy=st.sampled_from(_POLICIES),
        seed=st.integers(0, 2**32 - 1),
        reverse=st.booleans(),
    )
    @settings(deadline=None)
    @example(world=_EXAMPLES["stride-past-waypoint"], policy=_WANDER, seed=1,
             reverse=False)
    @example(world=_EXAMPLES["waypoint-is-start"], policy=_WANDER, seed=2,
             reverse=True)
    @example(world=_EXAMPLES["clamp-every-edge"], policy=_MIXED, seed=3,
             reverse=False)
    @example(world=_EXAMPLES["clamp-every-edge"], policy=_STILL, seed=4,
             reverse=False)
    @example(world=_EXAMPLES["idle-and-home-path"], policy=_MIXED, seed=5,
             reverse=True)
    def test_move_matches_next_position(self, world, policy, seed, reverse):
        users, locations, paths, region = world
        order = list(range(len(users)))
        if reverse:
            order.reverse()
        reference_rng = np.random.default_rng(seed)
        expected = [
            policy.next_position(
                users[row], locations[row], paths[row], region, reference_rng
            )
            for row in order
        ]

        rng = np.random.default_rng(seed)
        table = UserTable.from_users(users)
        policy.bind(table)
        rows = np.asarray(order, dtype=np.intp)
        ends = [(path[-1] if path else at) for path, at in zip(paths, locations)]
        positions = np.asarray(
            [(p.x, p.y) for p in ends], dtype=float
        ).reshape(len(users), 2)
        policy.move(positions, rows, table.homes, table.budgets, region, rng)

        assert _bits(positions[rows].tolist()) == _bits(
            (p.x, p.y) for p in expected
        )
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_mixed_routes_rows_to_group_policies():
    users, locations, paths, region = _EXAMPLES["idle-and-home-path"]
    table = UserTable.from_users(users)
    _MIXED.bind(table)
    rows = np.arange(len(users))
    moved = np.asarray([(p.x, p.y) for p in locations])
    _MIXED.move(
        moved, rows, table.homes, np.zeros(len(users)), region,
        np.random.default_rng(0),
    )
    # Stationary rows go home; follow-path rows (no group, unknown
    # group, follow-path) stay; zero-budget wanderers stay too.
    assert moved.tolist() == [
        [30.0, 40.0], [10.0, 20.0], [30.0, 40.0], [30.0, 40.0], [30.0, 40.0],
        [10.0, 20.0],
    ]
