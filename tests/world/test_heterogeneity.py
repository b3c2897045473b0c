"""Tests for heterogeneous user populations (WorldGenerator.heterogeneity
and named population groups)."""

import dataclasses

import numpy as np
import pytest

from repro.geometry.region import RectRegion
from repro.world.generator import WorldGenerator
from repro.world.population import PopulationGroup


def generator(heterogeneity):
    return WorldGenerator(
        region=RectRegion.square(1000.0),
        n_tasks=5,
        n_users=50,
        required_measurements=3,
        deadline_range=(3, 8),
        user_speed=2.0,
        user_cost_per_meter=0.002,
        user_time_budget=600.0,
        heterogeneity=heterogeneity,
    )


class TestValidation:
    def test_range_enforced(self):
        with pytest.raises(ValueError, match="heterogeneity"):
            generator(-0.1)
        with pytest.raises(ValueError, match="heterogeneity"):
            generator(1.0)

    def test_zero_is_valid(self):
        assert generator(0.0).heterogeneity == 0.0


class TestPopulationGroupRules:
    """A group's parameters obey the rules every user row obeys."""

    @pytest.mark.parametrize("key, value", [
        ("speed", 0.0),
        ("speed", -1.0),
        ("speed", (-1.0, 2.0)),
        ("speed", (1.0, float("nan"))),
        ("time_budget", -1.0),
        ("time_budget", (-5.0, 10.0)),
        ("cost_per_meter", -0.001),
        ("cost_per_meter", float("nan")),
    ])
    def test_bad_parameter_refused(self, key, value):
        with pytest.raises(ValueError, match=f"'g' {key} must be"):
            PopulationGroup(name="g", fraction=0.5, **{key: value})

    def test_bad_parameter_refused_from_mapping(self):
        with pytest.raises(ValueError, match="speed must be positive, got -1.0"):
            PopulationGroup.from_mapping(
                {"name": "g", "fraction": 0.5, "speed": -1.0}
            )

    def test_boundary_values_accepted(self):
        group = PopulationGroup(
            name="g", fraction=0.5, speed=(0.5, 2.0),
            time_budget=0.0, cost_per_meter=(0.0, 0.0),
        )
        assert group.time_budget == 0.0


class TestDraws:
    def test_zero_spread_gives_identical_users(self, rng):
        world = generator(0.0).uniform(rng)
        assert {u.speed for u in world.users} == {2.0}
        assert {u.cost_per_meter for u in world.users} == {0.002}
        assert {u.time_budget for u in world.users} == {600.0}

    def test_positive_spread_varies_users(self, rng):
        world = generator(0.5).uniform(rng)
        assert len({u.speed for u in world.users}) > 1
        assert len({u.cost_per_meter for u in world.users}) > 1
        assert len({u.time_budget for u in world.users}) > 1

    def test_draws_within_bounds(self, rng):
        world = generator(0.25).uniform(rng)
        for user in world.users:
            assert 1.5 <= user.speed <= 2.5
            assert 0.0015 <= user.cost_per_meter <= 0.0025
            assert 450.0 <= user.time_budget <= 750.0

    def test_zero_spread_reproduces_legacy_worlds(self):
        """h = 0 must consume no extra randomness (seed compatibility)."""
        seed_a = np.random.Generator(np.random.PCG64(5))
        seed_b = np.random.Generator(np.random.PCG64(5))
        legacy = generator(0.0).uniform(seed_a)
        again = generator(0.0).uniform(seed_b)
        assert [u.home for u in legacy.users] == [u.home for u in again.users]

    def test_integer_parameters_are_scaled_as_floats(self, rng):
        spec = dataclasses.replace(generator(0.25), user_speed=2,
                                   user_time_budget=600)
        world = spec.uniform(rng)
        assert world.users.speed.dtype == world.users.time_budget.dtype == float
        assert all(1.5 <= u.speed <= 2.5 for u in world.users)

    def test_clustered_layout_supports_heterogeneity(self, rng):
        world = generator(0.3).clustered(rng)
        assert len({u.speed for u in world.users}) > 1


class TestSimulationIntegration:
    def test_config_threads_heterogeneity(self):
        from repro.simulation.config import SimulationConfig
        from repro.simulation.engine import simulate

        config = SimulationConfig(
            n_users=15, n_tasks=5, rounds=5, required_measurements=3,
            area_side=1500.0, budget=150.0, heterogeneity=0.4, seed=6,
        )
        result = simulate(config)
        assert len({u.speed for u in result.world.users}) > 1
        assert result.rounds_played >= 1

    def test_users_respect_their_own_budgets(self):
        from repro.simulation.config import SimulationConfig
        from repro.simulation.engine import simulate

        config = SimulationConfig(
            n_users=15, n_tasks=5, rounds=5, required_measurements=3,
            area_side=1500.0, budget=150.0, heterogeneity=0.4, seed=6,
        )
        result = simulate(config)
        budgets = {u.user_id: u.max_travel_distance for u in result.world.users}
        for record in result.rounds:
            for user_record in record.user_records:
                assert user_record.distance <= budgets[user_record.user_id] + 1e-6

    def test_heterogeneity_ablation_runs(self):
        from repro.experiments.ablations import heterogeneity_ablation

        result = heterogeneity_ablation(spreads=(0.0, 0.5), repetitions=1, n_users=10)
        assert result.metadata["variants"] == ["h=0", "h=0.5"]
