"""Property tests for the columnar user table, :class:`UserTable`."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.dynamics.stream import RoundChanges
from repro.geometry.point import Point
from repro.geometry.region import RectRegion
from repro.simulation.engine import SimulationEngine
from repro.world import user as user_module
from repro.world.generator import World
from repro.world.mobility import MixedMobility, make_mobility
from repro.world.user import MobileUser, UserTable

_GROUPS = (None, "walkers", "commuters", "cyclists", "unknown")
_REGION = RectRegion.square(1000.0)
_coordinate = st.floats(0.0, 1000.0)


@st.composite
def tables(draw, max_size=12, id_base=0):
    """A valid table: distinct ids in any order, homes in ``_REGION``."""
    n = draw(st.integers(0, max_size))
    ids = draw(st.permutations(range(id_base, id_base + n)))
    return UserTable(
        ids,
        [(draw(_coordinate), draw(_coordinate)) for _ in range(n)],
        draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)),
        draw(st.lists(st.floats(0.0, 0.01), min_size=n, max_size=n)),
        draw(st.lists(st.floats(0.0, 3600.0), min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from(_GROUPS), min_size=n, max_size=n)),
    )


#: Any value, including each rule's boundary and NaN.
_any_float = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1.0, float("nan")]),
    st.floats(-10.0, 10.0),
)


def _columns(table):
    return [table.ids, table.homes, table.speed, table.cost_per_meter,
            table.time_budget, table.group, table.budgets]


def _assert_same_columns(table, expected):
    for got, want in zip(_columns(table), _columns(expected)):
        np.testing.assert_array_equal(got, want)


class TestValidation:
    @given(
        rows=st.lists(
            st.tuples(st.integers(-2, 50), _any_float, _any_float, _any_float),
            min_size=1, max_size=8, unique_by=lambda row: row[0],
        )
    )
    @settings(deadline=None)
    def test_names_the_first_bad_row_with_the_users_message(self, rows):
        """The table refuses exactly when building the users one by one
        would, with the first failing user's message plus its row."""
        first = None
        for row, (user_id, speed, cost, budget) in enumerate(rows):
            try:
                MobileUser(user_id, Point(0.0, 0.0), speed, cost, budget)
            except ValueError as exc:
                first = (row, user_id, str(exc))
                break
        columns = [list(column) for column in zip(*rows)]
        build = lambda: UserTable(
            columns[0], [(0.0, 0.0)] * len(rows), *columns[1:]
        )
        if first is None:
            assert len(build()) == len(rows)
            return
        row, user_id, message = first
        with pytest.raises(ValueError) as info:
            build()
        suffix = f" (row {row}, user {user_id})" if len(rows) > 1 else ""
        assert str(info.value) == message + suffix

    @pytest.mark.parametrize("field, value, words", [
        ("user_id", -1, "user_id must be non-negative, got -1"),
        ("speed", 0.0, "speed must be positive, got 0.0"),
        ("cost_per_meter", -0.001, "cost_per_meter must be non-negative, got -0.001"),
        ("time_budget", -1.0, "time_budget must be non-negative, got -1.0"),
    ])
    def test_messages_keep_their_wording(self, field, value, words):
        values = dict(user_id=[0, 1], speed=[2.0, 2.0],
                      cost_per_meter=[0.002, 0.002], time_budget=[900.0, 900.0])
        values[field] = [values[field][0], value]
        with pytest.raises(ValueError) as info:
            UserTable(values["user_id"], [(0.0, 0.0)] * 2, values["speed"],
                      values["cost_per_meter"], values["time_budget"])
        user = values["user_id"][1]
        assert str(info.value) == f"{words} (row 1, user {user})"

    def test_columns_of_different_lengths_are_refused(self):
        with pytest.raises(ValueError, match="speed has 1 rows, ids 2"):
            UserTable([0, 1], [(0.0, 0.0)] * 2, [2.0], [0.0, 0.0], [1.0, 1.0])

    def test_world_names_the_first_user_outside_its_region(self):
        users = [MobileUser(i, Point(x, 5.0), 2.0, 0.002, 900.0)
                 for i, x in enumerate((5.0, 11.0, -1.0))]
        with pytest.raises(ValueError, match=r"user 1 at Point\(x=11.0, y=5.0\) "
                                             r"lies outside"):
            World(RectRegion.square(10.0), [], users)


class TestRowViews:
    @given(table=tables())
    @settings(deadline=None)
    def test_rows_equal_users_built_from_the_same_values(self, table):
        rows = list(table)
        assert rows == [table[i] for i in range(len(table))]
        for i, row in enumerate(rows):
            assert row == MobileUser(
                int(table.ids[i]), Point(*table.homes[i].tolist()),
                float(table.speed[i]), float(table.cost_per_meter[i]),
                float(table.time_budget[i]), table.group[i],
            )
            assert type(row.user_id) is int
            assert all(type(v) is float for v in (
                row.home.x, row.home.y, row.speed, row.cost_per_meter,
                row.time_budget,
            ))
            assert row.max_travel_distance == table.budgets[i]
        if rows:
            assert table[-1] == rows[-1]
        assert UserTable.from_users(rows).ids.tolist() == table.ids.tolist()

    def test_rows_and_columns_are_read_only(self):
        table = UserTable([0], [(1.0, 2.0)], [2.0], [0.002], [900.0])
        with pytest.raises(AttributeError):
            table[0].speed = 3.0
        with pytest.raises(ValueError):
            table.speed[0] = 3.0
        with pytest.raises(IndexError):
            table[1]

    def test_id_order_sorts_the_rows_by_id(self):
        table = UserTable([5, 2, 9], [(0.0, 0.0)] * 3, [1.0] * 3, [0.0] * 3,
                          [1.0] * 3)
        assert table.ids[table.id_order].tolist() == [2, 5, 9]
        assert table.take([1, 0, 2]).id_order is None


class TestAlignment:
    @given(table=tables(), data=st.data())
    @settings(deadline=None)
    def test_mask_take_and_concatenate_keep_rows_together(self, table, data):
        n = len(table)
        mask = np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                          dtype=bool)
        rows = np.asarray(data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                             max_size=n if n else 0, unique=True)),
                          dtype=np.intp)
        for part, index in ((table.take(mask), mask), (table[mask], mask),
                            (table.take(rows), rows), (table[::-1], slice(None, None, -1))):
            assert part.ids.tolist() == table.ids[index].tolist()
            assert part.homes.tolist() == table.homes[index].tolist()
            assert part.budgets.tolist() == table.budgets[index].tolist()
            assert part.group.tolist() == table.group[index].tolist()
        both = UserTable.concatenate([table.take(mask), table.take(~mask)])
        order = np.concatenate([np.flatnonzero(mask), np.flatnonzero(~mask)])
        _assert_same_columns(both, table.take(order))

    @given(table=tables(), arrivals=tables(max_size=4, id_base=100), data=st.data())
    @settings(deadline=None)
    def test_dynamics_filter_and_extend_users_and_positions_together(
        self, table, arrivals, data,
    ):
        world = World(_REGION, [], table)
        # Users have moved: every row's position differs from its home.
        world.positions = world.positions + np.arange(len(table))[:, None] + 0.5
        stand = {uid: xy for uid, xy in zip(table.ids.tolist(),
                                            world.positions.tolist())}
        departures = data.draw(st.lists(st.sampled_from(table.ids.tolist()),
                                        unique=True)) if len(table) else []
        engine = SimpleNamespace(world=world, _price_cache=1, _problems_cache=1)
        SimulationEngine._apply_dynamics(engine, RoundChanges(
            round_no=2, departures=departures, arrivals=arrivals,
        ))
        kept = [uid for uid in table.ids.tolist() if uid not in departures]
        assert world.users.ids.tolist() == kept + arrivals.ids.tolist()
        assert len(world.positions) == len(world.users)
        assert world.positions.tolist() == (
            [stand[uid] for uid in kept] + arrivals.homes.tolist()
        )
        assert world.users.homes.tolist() == (
            [table.homes[table.ids.tolist().index(uid)].tolist() for uid in kept]
            + arrivals.homes.tolist()
        )


class TestMixedRoute:
    @given(table=tables())
    @settings(deadline=None)
    def test_route_from_the_group_column_equals_policy_for(self, table):
        wander = make_mobility("random-waypoint")
        mixed = MixedMobility(
            {"walkers": wander, "cyclists": wander,
             "commuters": make_mobility("stationary")},
            default=make_mobility("follow-path"),
        )
        mixed.bind(table)
        assert len(mixed._route) == len(table)
        for row, user in enumerate(table):
            assert mixed._members[mixed._route[row]] is mixed.policy_for(user)


def test_a_generated_city_run_builds_no_user_objects():
    """A generated world's users stay columns for a whole run: no
    ``MobileUser`` is constructed and no row view is built."""
    inits, rows = [], []
    real_init, real_row = MobileUser.__init__, user_module._row

    def counting_init(self, *args, **kwargs):
        inits.append(1)
        real_init(self, *args, **kwargs)

    def counting_row(*args):
        rows.append(1)
        return real_row(*args)

    config = api.build_config("city-2k", seed=0, rounds=3)
    with mock.patch.object(MobileUser, "__init__", counting_init), \
            mock.patch.object(user_module, "_row", counting_row):
        result = api.make_engine(config).run()
    assert result.rounds_played == 3
    assert len(result.world.users) == config.n_users
    assert inits == [] and rows == []
