"""Tests for staggered task arrivals (release rounds)."""

import numpy as np
import pytest

from repro.geometry.region import RectRegion
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine, simulate
from repro.world.generator import WorldGenerator
from repro.world.task import TaskTable
from tests.conftest import make_task


def generator(release_range=(1, 1), deadline_range=(3, 8)):
    return WorldGenerator(
        region=RectRegion.square(1000.0),
        n_tasks=30,
        n_users=10,
        required_measurements=3,
        deadline_range=deadline_range,
        user_speed=2.0,
        user_cost_per_meter=0.002,
        user_time_budget=600.0,
        release_range=release_range,
    )


class TestTaskReleaseField:
    def test_default_release_is_round_one(self):
        assert make_task().release_round == 1

    def test_release_after_deadline_rejected(self):
        with pytest.raises(ValueError, match="release_round"):
            make_task(deadline=3).__class__(
                task_id=0, location=make_task().location, deadline=3,
                required_measurements=1, release_round=4,
            )

    def test_is_published_gates_on_release(self):
        tasks = TaskTable([0], [(0.0, 0.0)], [10], [3], [3])
        assert not tasks.published(2)[0]
        assert tasks.published(3)[0]
        assert tasks.published(10)[0]

    def test_completed_task_not_published(self):
        tasks = TaskTable.from_tasks([make_task(required=1)])
        tasks.record([0], [0], round_no=1)
        assert not tasks.published(2)[0]


class TestGeneratorReleases:
    def test_default_draws_no_releases(self):
        a = generator((1, 1)).uniform(np.random.Generator(np.random.PCG64(4)))
        assert all(t.release_round == 1 for t in a.tasks)

    def test_legacy_seed_compatibility(self):
        """release_range=(1,1) must reproduce pre-arrival worlds."""
        a = generator((1, 1)).uniform(np.random.Generator(np.random.PCG64(4)))
        b = generator((1, 1)).uniform(np.random.Generator(np.random.PCG64(4)))
        assert [t.deadline for t in a.tasks] == [t.deadline for t in b.tasks]
        assert [u.home for u in a.users] == [u.home for u in b.users]

    def test_staggered_releases_drawn_in_range(self, rng):
        world = generator((2, 6)).uniform(rng)
        releases = [t.release_round for t in world.tasks]
        assert min(releases) >= 2
        assert max(releases) <= 6
        assert len(set(releases)) > 1

    def test_deadline_is_release_plus_duration(self, rng):
        world = generator((2, 6), deadline_range=(3, 5)).uniform(rng)
        for task in world.tasks:
            duration = task.deadline - task.release_round + 1
            assert 3 <= duration <= 5

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError, match="release_range"):
            generator((0, 3))
        with pytest.raises(ValueError, match="release_range"):
            generator((4, 2))


class TestEngineArrivals:
    @pytest.fixture
    def config(self):
        return SimulationConfig(
            n_users=15, n_tasks=8, rounds=12, required_measurements=3,
            deadline_range=(3, 5), release_range=(1, 6),
            area_side=1500.0, budget=200.0, seed=9,
        )

    def test_unreleased_tasks_not_priced(self, config):
        engine = SimulationEngine(config)
        late = [t.task_id for t in engine.world.tasks if t.release_round > 1]
        if not late:
            pytest.skip("seed produced no late releases")
        prices = engine.published_rewards()
        assert not (set(late) & set(prices))

    def test_no_measurement_before_release(self, config):
        result = simulate(config)
        releases = {t.task_id: t.release_round for t in result.world.tasks}
        for record in result.rounds:
            for event in record.measurements:
                assert event.round_no >= releases[event.task_id]

    def test_late_tasks_eventually_published_and_served(self, config):
        result = simulate(config)
        late_served = [
            t for t in result.world.tasks if t.release_round > 1 and t.received > 0
        ]
        assert late_served  # the crowd picks up newly arriving work

    def test_invariants_still_hold(self, config):
        result = simulate(config)
        assert result.total_paid <= config.budget + 1e-9
        for task in result.world.tasks:
            assert task.received <= task.required_measurements
            for round_no in task.measurements_by_round:
                assert task.release_round <= round_no <= task.deadline
