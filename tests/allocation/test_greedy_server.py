"""Unit tests for the SAT-mode greedy server coordinator."""

import pytest

from repro.allocation.greedy_server import GreedyServerCoordinator
from repro.world.task import TaskTable
from repro.world.user import UserTable
from tests.conftest import make_task, make_user


def assign(tasks, users, prices, round_no=1, **kwargs):
    coordinator = GreedyServerCoordinator(**kwargs)
    homes = UserTable.from_users(users).homes
    if not isinstance(tasks, TaskTable):
        tasks = TaskTable.from_tasks(tasks)
    return coordinator.assign(round_no, tasks, users, homes, prices)


class TestAssignment:
    def test_nearest_user_gets_the_task(self):
        task = make_task(0, 100.0, 0.0, required=1)
        near = make_user(0, 90.0, 0.0)
        far = make_user(1, 500.0, 0.0)
        selections = assign([task], [near, far], {0: 1.0})
        assert 0 in selections
        assert selections[0].task_ids == (0,)
        assert 1 not in selections

    def test_never_over_assigns_a_task(self):
        """The SAT advantage: at most `remaining` users per task."""
        task = make_task(0, 100.0, 100.0, required=2)
        users = [make_user(i, 90.0 + i, 100.0) for i in range(6)]
        selections = assign([task], users, {0: 1.0})
        assigned = sum(1 for s in selections.values() if 0 in s.task_ids)
        assert assigned == 2

    def test_respects_prior_contributors(self):
        tasks = TaskTable.from_tasks([make_task(0, 100.0, 0.0, required=3)])
        tasks.record([0], [0], round_no=1)
        users = [make_user(0, 90.0, 0.0), make_user(1, 200.0, 0.0)]
        selections = assign(tasks, users, {0: 1.0}, round_no=2)
        assert 0 not in selections  # user 0 already contributed
        assert selections[1].task_ids == (0,)

    def test_respects_travel_budget(self):
        # 2 m/s * 10 s = 20 m of travel; the task is 100 m away.
        user = make_user(0, 0.0, 0.0, time_budget=10.0)
        task = make_task(0, 100.0, 0.0, required=1)
        assert assign([task], [user], {0: 5.0}) == {}

    def test_respects_rationality(self):
        # Price 0.1 < leg cost 0.2 (100 m at 0.002): user would refuse.
        user = make_user(0, 0.0, 0.0)
        task = make_task(0, 100.0, 0.0, required=1)
        assert assign([task], [user], {0: 0.1}) == {}
        assert assign([task], [user], {0: 0.5}) != {}

    def test_urgent_tasks_claim_users_first(self):
        urgent = make_task(0, 100.0, 0.0, deadline=1, required=1)
        relaxed = make_task(1, 110.0, 0.0, deadline=15, required=1)
        # One user, capped to one assignment: it must go to the urgent task.
        user = make_user(0, 0.0, 0.0)
        selections = assign(
            [relaxed, urgent], [user], {0: 1.0, 1: 1.0}, max_tasks_per_user=1
        )
        assert selections[0].task_ids == (0,)

    def test_chains_multiple_tasks_per_user(self):
        tasks = [
            make_task(0, 100.0, 0.0, deadline=2, required=1),
            make_task(1, 200.0, 0.0, deadline=2, required=1),
        ]
        user = make_user(0, 0.0, 0.0)
        selections = assign(tasks, [user], {0: 1.0, 1: 1.0})
        assert set(selections[0].task_ids) == {0, 1}
        assert selections[0].distance == pytest.approx(200.0)

    def test_per_user_cap(self):
        tasks = [make_task(i, 100.0 + i, 0.0, required=1) for i in range(5)]
        prices = {i: 1.0 for i in range(5)}
        user = make_user(0, 100.0, 0.0)
        selections = assign(tasks, [user], prices, max_tasks_per_user=2)
        assert len(selections[0].task_ids) == 2

    def test_cap_validated(self):
        with pytest.raises(ValueError, match="max_tasks_per_user"):
            GreedyServerCoordinator(max_tasks_per_user=0)

    def test_selection_accounting(self):
        task = make_task(0, 100.0, 0.0, required=1)
        user = make_user(0, 0.0, 0.0)
        selection = assign([task], [user], {0: 1.5})[0]
        assert selection.distance == pytest.approx(100.0)
        assert selection.reward == pytest.approx(1.5)
        assert selection.cost == pytest.approx(0.2)
        assert selection.profit == pytest.approx(1.3)


class TestEngineIntegration:
    def test_sat_run_has_no_rejections(self):
        """Central assignment eliminates the WST redundancy drawback."""
        from repro.simulation.config import SimulationConfig
        from repro.simulation.engine import SimulationEngine

        engine = SimulationEngine(
            SimulationConfig(
                n_users=25, n_tasks=8, rounds=8, required_measurements=4,
                area_side=2000.0, budget=300.0, seed=7,
            ),
            coordinator=GreedyServerCoordinator(),
        )
        result = engine.run()
        assert result.total_measurements > 0
        assert all(not record.rejections for record in result.rounds)

    def test_sat_respects_budget_and_caps(self):
        from repro.simulation.config import SimulationConfig
        from repro.simulation.engine import SimulationEngine

        engine = SimulationEngine(
            SimulationConfig(
                n_users=25, n_tasks=8, rounds=8, required_measurements=4,
                area_side=2000.0, budget=300.0, seed=8,
            ),
            coordinator=GreedyServerCoordinator(),
        )
        result = engine.run()
        assert result.total_paid <= 300.0 + 1e-9
        for task in result.world.tasks:
            assert task.received <= task.required_measurements
