"""Unit and invariant tests for the simulation engine (the Fig. 1 loop)."""

import pytest

from repro.geometry.point import Point
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine, make_engine, simulate
from repro.world.task import TaskStatus


@pytest.fixture
def config(fast_config):
    return fast_config


class TestLifecycle:
    def test_run_plays_at_most_configured_rounds(self, config):
        result = simulate(config)
        assert 1 <= result.rounds_played <= config.rounds

    def test_round_numbers_sequential(self, config):
        result = simulate(config)
        assert [r.round_no for r in result.rounds] == list(
            range(1, result.rounds_played + 1)
        )

    def test_step_then_run_completes(self, config):
        engine = SimulationEngine(config)
        first = engine.step()
        assert first.round_no == 1
        assert engine.current_round == 2
        result = engine.run()
        assert result.rounds_played >= 1
        assert engine.finished

    def test_step_after_finish_raises(self, config):
        engine = SimulationEngine(config)
        engine.run()
        with pytest.raises(RuntimeError, match="finished"):
            engine.step()

    def test_run_after_run_is_idempotent(self, config):
        engine = SimulationEngine(config)
        result = engine.run()
        again = engine.run()
        assert again is result
        assert again.rounds_played == result.rounds_played

    def test_stops_when_all_tasks_inactive(self):
        # Plenty of users, tiny requirements: everything finishes early.
        config = SimulationConfig(
            n_users=60, n_tasks=3, required_measurements=2,
            area_side=800.0, rounds=15, budget=100.0, seed=1,
        )
        result = simulate(config)
        assert result.rounds_played < 15
        assert not result.world.tasks.active.any()


class TestInvariants:
    """The paper's structural rules, checked over a full run."""

    @pytest.fixture(scope="class")
    def result(self):
        return simulate(SimulationConfig(
            n_users=25, n_tasks=8, rounds=10, required_measurements=5,
            area_side=2000.0, budget=400.0, seed=11,
        ))

    def test_no_task_exceeds_required_measurements(self, result):
        for task in result.world.tasks:
            assert task.received <= task.required_measurements

    def test_each_user_contributes_at_most_once_per_task(self, result):
        seen = set()
        for record in result.rounds:
            for event in record.measurements:
                key = (event.task_id, event.user_id)
                assert key not in seen
                seen.add(key)

    def test_total_paid_within_budget(self, result):
        """Eq. 8: the platform can never overspend its budget."""
        assert result.total_paid <= result.config.budget + 1e-9

    def test_measurements_match_task_state(self, result):
        counts = result.measurements_by_task()
        for task in result.world.tasks:
            assert task.received == counts[task.task_id]

    def test_published_rewards_cover_exactly_active_tasks(self, result):
        active = {t.task_id for t in result.world.tasks}
        for record in result.rounds:
            # Every measurement was paid at that round's published price.
            for event in record.measurements:
                assert event.reward == pytest.approx(
                    record.published_rewards[event.task_id]
                )

    def test_rewards_positive(self, result):
        for record in result.rounds:
            assert all(price > 0 for price in record.published_rewards.values())

    def test_user_distance_within_their_budget(self, result):
        max_distance = 2.0 * 900.0  # speed * time budget
        for record in result.rounds:
            for user_record in record.user_records:
                assert user_record.distance <= max_distance + 1e-6

    def test_completed_tasks_have_completed_status(self, result):
        completed_ids = {
            task_id for record in result.rounds for task_id in record.completed_task_ids
        }
        for task in result.world.tasks:
            if task.task_id in completed_ids:
                assert task.status is TaskStatus.COMPLETED

    def test_expired_tasks_past_deadline(self, result):
        for record in result.rounds:
            for task_id in record.expired_task_ids:
                task = result.world.tasks[task_id]
                assert task.status is TaskStatus.EXPIRED
                assert record.round_no >= task.deadline

    def test_no_measurement_after_deadline(self, result):
        for task in result.world.tasks:
            for round_no in task.measurements_by_round:
                assert round_no <= task.deadline


class TestDeterminism:
    def test_same_seed_same_history(self, config):
        a = simulate(config)
        b = simulate(config)
        assert a.total_measurements == b.total_measurements
        assert a.total_paid == pytest.approx(b.total_paid)
        for ra, rb in zip(a.rounds, b.rounds):
            assert ra.published_rewards == rb.published_rewards
            assert ra.measurements == rb.measurements

    def test_different_seed_differs(self, config):
        a = simulate(config)
        b = simulate(config.with_overrides(seed=config.seed + 1))
        different = (
            a.total_measurements != b.total_measurements
            or a.round(1).published_rewards != b.round(1).published_rewards
            or a.round(1).measurements != b.round(1).measurements
        )
        assert different


class TestHooks:
    def test_observers_called_per_round(self, config):
        seen = []
        engine = SimulationEngine(config, observers=[lambda r: seen.append(r.round_no)])
        result = engine.run()
        assert seen == [r.round_no for r in result.rounds]

    def test_injected_world_is_used(self, config, tiny_world):
        engine = SimulationEngine(config, world=tiny_world)
        assert engine.world is tiny_world

    def test_build_problems_excludes_past_contributions(self, config):
        engine = SimulationEngine(config)
        engine.step()
        for user, problem in engine.build_problems():
            contributed = {
                t.task_id for t in engine.world.tasks
                if user.user_id in t.contributors
            }
            offered = {c.task_id for c in problem.candidates}
            assert not (contributed & offered)

    def test_published_rewards_is_repeatable(self, config):
        engine = SimulationEngine(config)
        engine.step()
        assert engine.published_rewards() == engine.published_rewards()


class TestLayouts:
    def test_clustered_layout_runs(self):
        config = SimulationConfig(
            n_users=20, n_tasks=6, rounds=6, required_measurements=3,
            budget=200.0, layout="clustered", seed=5,
        )
        result = simulate(config)
        assert result.rounds_played >= 1

    @pytest.mark.parametrize("mobility", ["stationary", "follow-path", "random-waypoint"])
    def test_all_mobility_policies_run(self, mobility):
        config = SimulationConfig(
            n_users=12, n_tasks=5, rounds=5, required_measurements=3,
            budget=150.0, mobility=mobility, seed=2,
        )
        result = simulate(config)
        assert result.rounds_played >= 1
        region = result.world.region
        assert all(
            region.contains(Point(x, y)) for x, y in result.world.positions.tolist()
        )

    @pytest.mark.parametrize("mechanism", ["on-demand", "fixed", "steered", "proportional"])
    def test_all_mechanisms_run(self, mechanism):
        config = SimulationConfig(
            n_users=12, n_tasks=5, rounds=5, required_measurements=3,
            budget=150.0, mechanism=mechanism, seed=2,
        )
        assert simulate(config).rounds_played >= 1

    @pytest.mark.parametrize("selector", ["dp", "greedy", "greedy-2opt"])
    def test_all_selectors_run(self, selector):
        config = SimulationConfig(
            n_users=12, n_tasks=5, rounds=5, required_measurements=3,
            budget=150.0, selector=selector, seed=2,
        )
        assert simulate(config).rounds_played >= 1


class TestSparseRound:
    """Mobility is one ``move`` call per round over every row in arrival
    order: walkers start from their last task, everyone else from where
    they stand, and only the wanderers' policy draws — in either
    distance precision.

    Cases load through a legacy value of the retired ``engine`` key: a
    "scalar" spec ran float64, a "batched" one may run float32.
    """

    @pytest.mark.parametrize("engine_name", ["scalar", "batched"])
    def test_mobility_called_for_movers_only(self, engine_name):
        config = SimulationConfig(
            n_users=60, n_tasks=8, rounds=4, seed=5, budget=400.0,
            participation_rate=0.7,
            population=[
                {"name": "wanderers", "fraction": 0.3,
                 "mobility": "random-waypoint"},
                {"name": "commuters", "fraction": 0.3,
                 "mobility": "stationary"},
            ],
        ).with_overrides(
            engine=engine_name,
            distance_dtype="float64" if engine_name == "scalar" else "float32",
        )
        engine = make_engine(config)
        calls, draws = [], []
        mobility = engine.mobility
        wander = mobility.policies["wanderers"]
        move, wander_move = mobility.move, wander.move

        def recording(positions, rows, *rest):
            calls.append((rows.copy(), positions[rows]))
            return move(positions, rows, *rest)

        def drawing(positions, rows, *rest):
            draws.append(rows.copy())
            return wander_move(positions, rows, *rest)

        def never(*args):
            raise AssertionError("the engine moves users through move()")

        mobility.move, wander.move = recording, drawing
        mobility.next_position = never
        while not engine.finished:
            calls.clear()
            draws.clear()
            users = list(engine.world.users)
            before = engine.world.positions.copy()
            tasks = {t.task_id: t.location for t in engine.published_tasks()}
            record = engine.step()
            assert len(calls) == 1 and len(draws) == 1
            rows, starts = calls[0]
            assert sorted(rows.tolist()) == list(range(len(users)))
            paths = {r.user_id: r.selected_task_ids for r in record.user_records}
            walkers = set()
            for row, (x, y) in zip(rows.tolist(), starts.tolist()):
                path = paths[users[row].user_id]
                end = tasks[path[-1]] if path else Point(*before[row])
                assert (x, y) == (end.x, end.y)
                walkers.update([row] if path else [])
            wanderers = [
                row for row in rows.tolist() if users[row].group == "wanderers"
            ]
            assert wanderers and walkers
            assert draws[0].tolist() == wanderers
