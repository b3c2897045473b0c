"""Unit tests for repro.world.generator."""

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.geometry.region import RectRegion
from repro.world.generator import World, WorldGenerator, default_generator
from tests.conftest import make_task, make_user


def generator(n_tasks=10, n_users=20, side=1000.0):
    return WorldGenerator(
        region=RectRegion.square(side),
        n_tasks=n_tasks,
        n_users=n_users,
        required_measurements=5,
        deadline_range=(3, 9),
        user_speed=2.0,
        user_cost_per_meter=0.002,
        user_time_budget=600.0,
    )


class TestValidation:
    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError, match="n_tasks"):
            generator(n_tasks=0)
        with pytest.raises(ValueError, match="n_users"):
            generator(n_users=0)

    def test_bad_deadline_range(self):
        with pytest.raises(ValueError, match="deadline_range"):
            WorldGenerator(
                region=RectRegion.square(100.0),
                n_tasks=1, n_users=1, required_measurements=1,
                deadline_range=(5, 3),
                user_speed=2.0, user_cost_per_meter=0.002, user_time_budget=60.0,
            )

    def test_world_rejects_out_of_region_entities(self):
        region = RectRegion.square(100.0)
        with pytest.raises(ValueError, match="outside"):
            World(region, [make_task(x=500.0, y=500.0)], [make_user()])
        with pytest.raises(ValueError, match="outside"):
            World(region, [make_task(x=50.0, y=50.0)], [make_user(x=-1.0)])


class TestUniform:
    def test_counts_and_containment(self, rng):
        world = generator().uniform(rng)
        assert len(world.tasks) == 10
        assert len(world.users) == 20
        assert all(world.region.contains(t.location) for t in world.tasks)
        assert all(world.region.contains(u.home) for u in world.users)

    def test_ids_are_sequential(self, rng):
        world = generator().uniform(rng)
        assert [t.task_id for t in world.tasks] == list(range(10))
        assert [u.user_id for u in world.users] == list(range(20))

    def test_deadlines_within_range(self, rng):
        world = generator().uniform(rng)
        assert all(3 <= t.deadline <= 9 for t in world.tasks)

    def test_deadline_range_inclusive_both_ends(self):
        # Across many draws both endpoints must appear.
        deadlines = set()
        gen = generator(n_tasks=50)
        for seed in range(20):
            world = gen.uniform(np.random.Generator(np.random.PCG64(seed)))
            deadlines.update(t.deadline for t in world.tasks)
        assert 3 in deadlines and 9 in deadlines

    def test_user_parameters_propagate(self, rng):
        world = generator().uniform(rng)
        user = world.users[0]
        assert user.speed == 2.0
        assert user.cost_per_meter == 0.002
        assert user.time_budget == 600.0

    def test_total_required_measurements(self, rng):
        world = generator().uniform(rng)
        assert world.total_required_measurements == 50

    def test_deterministic_per_seed(self):
        gen = generator()
        a = gen.uniform(np.random.Generator(np.random.PCG64(3)))
        b = gen.uniform(np.random.Generator(np.random.PCG64(3)))
        assert [t.location for t in a.tasks] == [t.location for t in b.tasks]
        assert [u.home for u in a.users] == [u.home for u in b.users]


class TestClustered:
    def test_counts_and_containment(self, rng):
        world = generator(n_tasks=10, n_users=30).clustered(rng)
        assert len(world.tasks) == 10
        assert len(world.users) == 30
        assert all(world.region.contains(t.location) for t in world.tasks)

    def test_remote_fraction_bounds(self, rng):
        with pytest.raises(ValueError, match="remote_task_fraction"):
            generator().clustered(rng, remote_task_fraction=1.5)
        with pytest.raises(ValueError, match="n_clusters"):
            generator().clustered(rng, n_clusters=0)

    def test_remote_tasks_are_far_from_users(self, rng):
        world = generator(n_tasks=10, n_users=60, side=3000.0).clustered(
            rng, n_clusters=2, cluster_spread=150.0, remote_task_fraction=0.3
        )
        # The 3 remote tasks are the first three; their nearest user should
        # be far compared to clustered tasks' nearest users.
        def nearest_user(task):
            return min(task.location.distance_to(u.home) for u in world.users)

        remote = [nearest_user(t) for t in world.tasks[:3]]
        near = [nearest_user(t) for t in world.tasks[3:]]
        assert min(remote) > np.median(near)

    def test_zero_remote_fraction(self, rng):
        world = generator(n_tasks=8).clustered(rng, remote_task_fraction=0.0)
        assert len(world.tasks) == 8


class TestDefaultGenerator:
    def test_paper_constants(self):
        gen = default_generator(n_users=100)
        assert gen.n_tasks == 20
        assert gen.required_measurements == 20
        assert gen.deadline_range == (5, 15)
        assert gen.user_speed == 2.0
        assert gen.user_cost_per_meter == 0.002
        assert gen.region.width == 3000.0

    def test_helpers(self, rng):
        world = default_generator(n_users=10).uniform(rng)
        assert world.tasks.locations.shape == (20, 2)
        assert world.positions.shape == (10, 2)
        assert isinstance(world.tasks[0].location, Point)
