"""The two front ends of problem assembly give the same problems.

:class:`RoundProblems` finds each user's candidate (user, task) pairs
either by a dense pass over every pair or, on sparse rounds, through
per-user column windows (``round_cache._ColumnWindows``).  Both feed
the same boundary-band recheck, contributor exclusion and block gather,
so every :class:`ProblemBlock` must come out bit for bit the same.

- :class:`TestFrontEndEquivalence` forces each path on random rounds
  (both dtypes, partial participation, prior contributors, several
  chunk sizes, users placed within the boundary band of a task along x
  and y) and compares the blocks.  It also holds the sparse front end's
  cell table to brute force (every task within a user's reach, decided
  in exact rational arithmetic, lies in that user's windows) and to its
  size bound, on random rounds and on degenerate ones.
- :class:`TestPathSelection` pins the selection rule on a city-50k
  round (sparse) and a paper-2018 round (dense), so the plain test run
  exercises both paths.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_config, make_engine
from repro.geometry.point import Point
from repro.simulation import round_cache
from repro.geometry import BOUNDARY_TOL
from repro.simulation.round_cache import RoundProblems, float32_boundary_tol
from repro.world.task import SensingTask, TaskTable

#: The selection rule's share, forcing each front end.
FORCE = {"dense": dict(SPARSE_SHARE=0.0), "sparse": dict(SPARSE_SHARE=math.inf)}


def assembled(problems, columns, path):
    with mock.patch.multiple(round_cache, **FORCE[path]):
        return list(problems.iter_blocks(**columns))


def assert_same_blocks(problems, columns):
    """Both front ends give the same blocks, bit for bit."""
    dense = assembled(problems, columns, "dense")
    sparse = assembled(problems, columns, "sparse")
    assert len(sparse) == len(dense)
    for (got_rows, got), (want_rows, want) in zip(sparse, dense):
        np.testing.assert_array_equal(got_rows, want_rows)
        # The pairs, then their origin distances, then everything
        # else the selector reads.
        np.testing.assert_array_equal(got.columns, want.columns)
        assert got.distances.dtype == want.distances.dtype == problems.dtype
        assert got.distances.tobytes() == want.distances.tobytes()
        for field in (
            "rewards", "task_ids", "max_distance", "cost_per_meter",
            "origins",
        ):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def assert_windows_cover(task_xy, origins, reach):
    """The cell table holds at most about four cells per user and task,
    and each user's windows hold every task whose exact distance from
    the user is within its reach."""
    windows = round_cache._ColumnWindows(task_xy, origins, reach)
    assert len(windows.starts) - 1 <= 4 * (len(task_xy) + len(origins)) + 8
    assert (windows.hi >= windows.lo).all()
    for row, ((x, y), r) in enumerate(zip(origins.tolist(), reach.tolist())):
        held = {
            int(windows.order[at])
            for lo, hi in zip(windows.lo[row].tolist(), windows.hi[row].tolist())
            for at in range(lo, hi)
        }
        for col, (tx, ty) in enumerate(task_xy.tolist()):
            dx, dy = Fraction(tx) - Fraction(x), Fraction(ty) - Fraction(y)
            if dx * dx + dy * dy <= Fraction(r) ** 2:
                assert col in held, (row, col)
    return windows


def plain_round(task_xy, origins, budgets):
    """A round with no prior contributors, and its participant columns."""
    n_tasks, n_users = len(task_xy), len(origins)
    tasks = TaskTable(
        list(range(n_tasks)), task_xy, [5] * n_tasks, [4] * n_tasks
    )
    columns = dict(
        user_ids=np.arange(n_users), origins=origins, budgets=budgets,
        costs=np.full(n_users, 0.01),
    )
    return RoundProblems(tasks, dict.fromkeys(range(n_tasks), 1.0)), columns


@st.composite
def sparse_rounds(draw):
    """One round's tasks, prices and participant columns, plus dtype
    and chunk budget."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    side = draw(st.sampled_from([50.0, 4000.0, 60000.0]))
    n_tasks = draw(st.integers(1, 12))
    coordinate = st.floats(0.0, side, allow_nan=False)
    task_xy = np.array(
        [[draw(coordinate), draw(coordinate)] for _ in range(n_tasks)]
    )
    # Participants: a sorted or shuffled subset of a larger population.
    population = draw(st.integers(1, 60))
    ids = np.array(sorted(draw(st.sets(
        st.integers(0, 3 * population), min_size=1, max_size=population
    ))), dtype=np.int64)
    if draw(st.booleans()):
        ids = ids[np.random.default_rng(draw(st.integers(0, 99))).permutation(len(ids))]
    n_users = len(ids)
    budgets = np.array([
        draw(st.floats(0.0, side / 2, allow_nan=False)) for _ in range(n_users)
    ])
    origins = np.array(
        [[draw(coordinate), draw(coordinate)] for _ in range(n_users)]
    )
    tol = (
        float32_boundary_tol(side * 1.5, side / 2) if dtype is np.float32
        else BOUNDARY_TOL
    )
    # Some users stand at budget +- a fraction of the band from a task,
    # along x or along y, so their reach is decided by the recheck.
    for row in range(n_users):
        axis = draw(st.sampled_from([None, 0, 1]))
        if axis is None:
            continue
        task = draw(st.integers(0, n_tasks - 1))
        offset = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        origins[row] = task_xy[task]
        origins[row, axis] += sign * (budgets[row] + offset * tol)
    contributors = [
        sorted(draw(st.sets(st.integers(0, 3 * population))))
        for _ in range(n_tasks)
    ]
    tasks = TaskTable(
        [3 * i + 1 for i in range(n_tasks)], task_xy, [5] * n_tasks,
        [max(4, len(c)) for c in contributors],
    )
    tasks.record(
        np.repeat(np.arange(n_tasks), [len(c) for c in contributors]),
        [user for c in contributors for user in c], round_no=1,
    )
    prices = {task_id: draw(st.floats(0.5, 9.0)) for task_id in tasks.ids.tolist()}
    chunk_bytes = draw(st.sampled_from(
        [round_cache.DEFAULT_CHUNK_BYTES, 8 * n_tasks, 8 * n_tasks * 7]
    ))
    columns = dict(
        user_ids=ids, origins=origins, budgets=budgets,
        costs=np.linspace(0.01, 0.02, n_users),
    )
    return tasks, prices, columns, dtype, chunk_bytes


class TestFrontEndEquivalence:
    @given(round_=sparse_rounds())
    @settings(deadline=None)
    def test_sparse_and_dense_blocks_are_identical(self, round_):
        tasks, prices, columns, dtype, chunk_bytes = round_
        problems = RoundProblems(
            tasks, prices, dtype=dtype, chunk_bytes=chunk_bytes
        )
        assert_same_blocks(problems, columns)

    @given(round_=sparse_rounds())
    @settings(deadline=None)
    def test_windows_hold_every_task_within_reach(self, round_):
        tasks, _, columns, _, _ = round_
        assert_windows_cover(
            tasks.locations, columns["origins"],
            columns["budgets"] + BOUNDARY_TOL,
        )

    @pytest.mark.parametrize("case", [
        "tiny-reach", "users-far-outside", "one-task", "one-x", "duplicates",
    ])
    def test_degenerate_tables(self, case):
        rng = np.random.default_rng(7)
        task_xy = rng.uniform(0.0, 60_000.0, (40, 2))
        origins = rng.uniform(0.0, 60_000.0, (30, 2))
        budgets = rng.uniform(0.0, 5_000.0, 30)
        if case == "tiny-reach":
            # Columns and cells as narrow as the reach would need ~10^21
            # cells; assert_windows_cover holds the table to its bound.
            budgets[:] = 0.0
            origins[:10] = task_xy[:10]
        elif case == "users-far-outside":
            origins[::2] = [[-1e7, 3e4], [3e4, 1e9], [-5e5, -5e5]] * 5
        elif case == "one-task":
            task_xy = task_xy[:1]
            origins[:10] = task_xy[0] + rng.uniform(-3e3, 3e3, (10, 2))
        elif case == "one-x":
            task_xy[:, 0] = 12_345.0
        else:
            task_xy[10:30] = task_xy[:20]
            task_xy[30:] = task_xy[0]
        windows = assert_windows_cover(task_xy, origins, budgets + BOUNDARY_TOL)
        if case == "users-far-outside":
            assert (windows.hi[::2] == windows.lo[::2]).all()
        assert_same_blocks(*plain_round(task_xy, origins, budgets))

    def test_boundary_pairs_are_rechecked_the_same_way(self):
        # One user exactly a budget east of a task, one a hair beyond:
        # the first is reachable, the second not, on both paths.
        tasks = TaskTable.from_tasks([SensingTask(0, Point(1000.0, 1000.0), 5, 4)])
        budgets = np.array([250.0, 250.0])
        columns = dict(
            user_ids=np.array([0, 1]),
            origins=np.array([[1250.0, 1000.0], [1250.0 + 1e-9, 1000.0]]),
            budgets=budgets, costs=np.array([0.01, 0.01]),
        )
        problems = RoundProblems(tasks, {0: 1.0})
        for path in FORCE:
            blocks = assembled(problems, columns, path)
            assert [rows.tolist() for rows, _ in blocks] == [[0]], path


class TestPathSelection:
    @staticmethod
    def taken_path(engine):
        problems = engine._round_problems(
            engine.published_tasks(), engine.published_rewards()
        )
        users = engine.world.users
        with mock.patch.object(
            RoundProblems, "_dense_candidates", autospec=True,
            side_effect=RoundProblems._dense_candidates,
        ) as dense:
            blocks = list(problems.iter_blocks(
                users.ids, origins=engine.world.positions,
                budgets=users.budgets, costs=users.cost_per_meter,
            ))
        assert blocks, "nobody had a candidate: the round proved nothing"
        return "dense" if dense.called else "sparse"

    def test_city_50k_round_takes_the_sparse_path(self):
        assert self.taken_path(make_engine(build_config("city-50k", seed=1))) == "sparse"

    @pytest.mark.parametrize("scenario", ["paper-2018", "city-2k"])
    def test_small_rounds_take_the_dense_path(self, scenario):
        assert self.taken_path(make_engine(build_config(scenario, seed=1))) == "dense"
