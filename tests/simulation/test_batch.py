"""The batched engine path: bit-identity with the scalar engine.

The batched engine's whole contract is "same histories, faster" — so
these tests compare full behavioral round histories (published rewards,
per-user records, measurements, rejections, lifecycle events) and final
world state field by field, never wall-clock or perf counters.
"""

import numpy as np
import pytest

from repro.simulation import SimulationConfig, SimulationEngine, make_engine
from repro.simulation.batch import BatchedRoundProblems, BatchedSimulationEngine
from repro.simulation.round_cache import RoundProblems


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


def final_world_state(engine):
    return (
        tuple(
            (u.user_id, u.location.x, u.location.y, u.total_reward,
             u.total_cost)
            for u in engine.world.users
        ),
        tuple(
            (t.task_id, t.received, t.status.value,
             tuple(sorted(t.contributors)))
            for t in engine.world.tasks
        ),
    )


def run_both(**overrides):
    base = SimulationConfig(**overrides)
    scalar = make_engine(base.with_overrides(engine="scalar"))
    batched = make_engine(base.with_overrides(engine="batched"))
    return (scalar, scalar.run()), (batched, batched.run())


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_paper_world(self, seed):
        (s_eng, s_res), (b_eng, b_res) = run_both(
            n_users=60, n_tasks=20, rounds=10, seed=seed
        )
        assert behavioral_history(s_res) == behavioral_history(b_res)
        assert final_world_state(s_eng) == final_world_state(b_eng)
        assert s_res.total_paid == b_res.total_paid

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
        (s_eng, s_res), (b_eng, b_res) = run_both(
            n_users=50, n_tasks=15, rounds=8, seed=11, **overrides
        )
        assert behavioral_history(s_res) == behavioral_history(b_res)
        assert final_world_state(s_eng) == final_world_state(b_eng)

    def test_streamed_rounds(self):
        (_, s_res), (_, b_res) = run_both(
            n_users=40, rounds=6, seed=3, stream_rounds=True
        )
        assert s_res.total_measurements == b_res.total_measurements
        assert s_res.total_paid == b_res.total_paid


class TestChunking:
    def test_pathologically_small_chunks_change_nothing(self):
        base = SimulationConfig(n_users=40, rounds=5, seed=3)
        reference = make_engine(base).run()
        tiny_chunks = make_engine(base.with_overrides(engine="batched"))
        tiny_chunks.chunk_elements = 7  # ~1 user per chunk
        assert behavioral_history(tiny_chunks.run()) == behavioral_history(
            reference
        )

    def test_chunk_elements_validated(self):
        with pytest.raises(ValueError, match="chunk_elements"):
            BatchedRoundProblems([], {}, chunk_elements=0)


class TestProblemParity:
    def test_iter_problems_matches_problem_for(self):
        engine = make_engine(
            SimulationConfig(n_users=25, seed=5, engine="batched")
        )
        engine.step()  # advance one round so some tasks have contributors
        tasks = engine.active_tasks()
        prices = {t.task_id: 1.0 for t in tasks}
        scalar = RoundProblems(tasks, prices)
        users = list(engine.world.users)
        expected = [scalar.problem_for(user) for user in users]
        # Both layouts: the round's own task matrix, and the engine's
        # all-tasks matrix reached through the task-row mapping.
        for batched in (
            BatchedRoundProblems(tasks, prices),
            engine._make_round_problems(tasks, prices),
        ):
            built = dict(batched.iter_problems(users))
            assert built, "no user had a candidate"
            for index, want in enumerate(expected):
                if index not in built:
                    assert want.size == 0
                    continue
                problem = built[index]
                assert [c.task_id for c in problem.candidates] == [
                    c.task_id for c in want.candidates
                ]
                np.testing.assert_array_equal(
                    problem.distance_matrix, want.distance_matrix
                )
                assert problem.distance_matrix.dtype == np.float64
                assert problem.max_distance == want.max_distance
                assert problem.cost_per_meter == want.cost_per_meter

    def test_empty_problem_skips_selector(self):
        # Shrink travel budgets to zero reach: every problem is empty, so
        # the batched engine must answer without a single selector call.
        engine = make_engine(
            SimulationConfig(
                n_users=10, rounds=2, seed=0, engine="batched",
                user_time_budget=0.001,
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

    def test_problem_hits_count_participants_on_both_engines(self):
        # One problem-cache hit per participant, whether or not the
        # batched engine built a problem for them.
        (_, scalar), (_, batched) = run_both(
            n_users=60, rounds=3, seed=2, user_time_budget=300
        )
        for mine, theirs in zip(scalar.rounds, batched.rounds):
            assert mine.perf.problem_cache_hits == theirs.perf.problem_cache_hits
            assert theirs.perf.problem_cache_hits > theirs.perf.selector_calls


class TestEngineFactory:
    def test_dispatches_on_config_engine(self):
        scalar = make_engine(SimulationConfig(n_users=5))
        batched = make_engine(SimulationConfig(n_users=5, engine="batched"))
        assert type(scalar) is SimulationEngine
        assert isinstance(batched, BatchedSimulationEngine)

    def test_batched_flips_mechanism_flag(self):
        engine = make_engine(SimulationConfig(n_users=5, engine="batched"))
        assert getattr(engine.mechanism, "batched", False) is True
        scalar = make_engine(SimulationConfig(n_users=5))
        assert getattr(scalar.mechanism, "batched", True) is False


def test_row_mapped_problems_refuse_problem_for():
    engine = make_engine(SimulationConfig(n_users=10, seed=1, engine="batched"))
    problems = engine._round_problems(
        engine.published_tasks(), engine.published_rewards()
    )
    with pytest.raises(TypeError, match="iter_problems"):
        problems.problem_for(engine.world.users[0])
