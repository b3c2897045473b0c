"""The engine's chunked problem assembly against the per-user reference.

:meth:`TaskSelectionProblem.build` is the reference Eq. 1 instance: it
prunes by ``Point.distance_to`` and fills the distance matrix with
:func:`~repro.geometry.distances.pairwise_distances`.  The engine's
block assembly must hand the selector exactly those instances, so these
tests compare problems bit for bit, and every played selection against
the reference instance solved by a fresh selector.
"""

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.selection import SELECTORS, CandidateTask, TaskSelectionProblem
from repro.simulation import SimulationConfig, make_engine
from repro.simulation.round_cache import RoundProblems
from repro.world.task import TaskTable


def behavioral_history(result):
    """Every behavioral field of a run, as one comparable structure."""
    return [
        (
            record.round_no,
            tuple(sorted(record.published_rewards.items())),
            tuple(
                (u.user_id, tuple(u.selected_task_ids), u.distance,
                 u.reward, u.cost)
                for u in record.user_records
            ),
            tuple((m.user_id, m.task_id, m.round_no)
                  for m in record.measurements),
            tuple((r.user_id, r.task_id, r.reason)
                  for r in record.rejections),
            tuple(sorted(record.completed_task_ids)),
            tuple(sorted(record.expired_task_ids)),
        )
        for record in result.rounds
    ]


def located(world):
    """``(user, position)`` pairs of the world's users, positions as
    :class:`Point` s read from ``World.positions``."""
    return [
        (user, Point(x, y))
        for user, (x, y) in zip(world.users, world.positions.tolist())
    ]


def user_columns(users, positions):
    """The per-row arrays :class:`RoundProblems` reads for ``users``."""
    return dict(
        user_ids=np.asarray([u.user_id for u in users], dtype=np.int64),
        origins=positions,
        budgets=np.asarray([u.max_travel_distance for u in users]),
        costs=np.asarray([u.cost_per_meter for u in users]),
    )


def reference_problem(user, origin, tasks, prices):
    """The user's Eq. 1 instance from ``origin``, by the per-user
    reference builder."""
    candidates = [
        CandidateTask(task_id=t.task_id, location=t.location,
                      reward=prices[t.task_id])
        for t in tasks
        if user.user_id not in t.contributors
    ]
    return TaskSelectionProblem.build(
        origin=origin,
        candidates=candidates,
        max_distance=user.max_travel_distance,
        cost_per_meter=user.cost_per_meter,
    )


def assert_rounds_match_reference(config):
    """Play ``config``; each round, every participant's played selection
    must be the reference instance's answer, bit for bit, and everyone
    else must sit the round out."""
    assert not config.dynamics  # the published set is fixed before step()
    engine = make_engine(config)
    selector = SELECTORS.create(config.selector, **config.selector_kwargs)
    masks = []
    draw = engine._participation_mask

    def capture():
        masks.append(draw())
        return masks[-1]

    engine._participation_mask = capture
    walked = 0
    while not engine.finished:
        tasks, prices = engine.published_tasks(), engine.published_rewards()
        expected = {
            user.user_id: selector.select(
                reference_problem(user, origin, tasks, prices)
            )
            for user, origin in located(engine.world)
        }
        record = engine.step()
        present = {
            user.user_id
            for user, here in zip(engine.world.users, masks[-1]) if here
        }
        for row in record.user_records:
            if row.user_id not in present:
                assert row.selected_task_ids == ()
                continue
            want = expected[row.user_id]
            assert row.selected_task_ids == want.task_ids
            assert row.distance.hex() == want.distance.hex()
            assert row.cost.hex() == want.cost.hex()
            walked += bool(want.task_ids)
    assert walked, "nobody walked: the comparison proved nothing"


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_paper_world(self, seed):
        assert_rounds_match_reference(
            SimulationConfig(n_users=60, n_tasks=20, rounds=10, seed=seed)
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(selector="greedy", mobility="random-waypoint"),
            dict(mechanism="fixed", participation_rate=0.7,
                 release_range=(1, 5)),
            dict(heterogeneity=0.3, layout="clustered"),
            dict(arrival="poisson"),
        ],
        ids=["waypoint", "fixed-partial", "clustered-hetero", "poisson"],
    )
    def test_extension_knobs(self, overrides):
        assert_rounds_match_reference(
            SimulationConfig(n_users=50, n_tasks=15, rounds=8, seed=11,
                             **overrides)
        )

    def test_streamed_rounds(self):
        assert_rounds_match_reference(
            SimulationConfig(n_users=40, rounds=6, seed=3, stream_rounds=True)
        )


class TestChunking:
    def test_pathologically_small_chunks_change_nothing(self):
        base = SimulationConfig(n_users=40, rounds=5, seed=3)
        reference = make_engine(base).run()
        tiny_chunks = make_engine(base)
        tiny_chunks.chunk_bytes = 7 * 8  # ~1 user per chunk
        assert behavioral_history(tiny_chunks.run()) == behavioral_history(
            reference
        )

    def test_chunk_bytes_validated(self):
        with pytest.raises(ValueError, match="chunk_bytes"):
            RoundProblems(TaskTable.empty(), {}, chunk_bytes=0)


class TestProblemParity:
    def test_iter_problems_matches_build(self):
        engine = make_engine(SimulationConfig(n_users=25, seed=5))
        engine.step()  # advance one round so some tasks have contributors
        tasks = engine.world.tasks.take(engine.world.tasks.active)
        assert any(t.contributors for t in tasks)
        prices = {t.task_id: 1.0 for t in tasks}
        users = list(engine.world.users)
        expected = [
            reference_problem(user, origin, tasks, prices)
            for user, origin in located(engine.world)
        ]
        # Both builds: a standalone one, and the engine's round build.
        for problems in (
            RoundProblems(tasks, prices),
            engine._round_problems(tasks, prices, cached=False),
        ):
            built = dict(problems.iter_problems(
                **user_columns(users, engine.world.positions)
            ))
            assert built, "no user had a candidate"
            for index, want in enumerate(expected):
                if index not in built:
                    assert want.size == 0
                    continue
                problem = built[index]
                assert problem.origin == want.origin
                assert problem.candidates == want.candidates
                np.testing.assert_array_equal(
                    problem.distance_matrix, want.distance_matrix
                )
                assert problem.distance_matrix.dtype == np.float64
                assert problem.max_distance == want.max_distance
                assert problem.cost_per_meter == want.cost_per_meter

    def test_empty_problem_skips_selector(self):
        # Shrink travel budgets to zero reach: every problem is empty, so
        # the engine must answer without a single selector call.
        engine = make_engine(
            SimulationConfig(
                n_users=10, rounds=2, seed=0, user_time_budget=0.001,
            )
        )
        calls = []
        original = engine.selector.select

        def counting(problem):
            calls.append(problem)
            return original(problem)

        engine.selector.select = counting
        result = engine.run()
        assert calls == []
        assert all(
            not record.selected_task_ids
            for round_record in result.rounds
            for record in round_record.user_records
        )
