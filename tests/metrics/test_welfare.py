"""Unit tests for the platform-welfare metric."""

import pytest

from repro.metrics.welfare import on_time_measurements, platform_welfare, welfare_margin
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import simulate


@pytest.fixture(scope="module")
def result():
    return simulate(SimulationConfig(
        n_users=20, n_tasks=8, rounds=8, required_measurements=4,
        area_side=2000.0, budget=300.0, seed=37,
    ))


class TestOnTime:
    def test_counts_by_deadline(self, result):
        expected = sum(
            count
            for t in result.world.tasks
            for round_no, count in t.measurements_by_round.items()
            if round_no <= t.deadline
        )
        assert on_time_measurements(result) == expected

    def test_at_most_total_measurements(self, result):
        assert on_time_measurements(result) <= result.total_measurements


class TestWelfare:
    def test_linear_definition(self, result):
        welfare = platform_welfare(result, value_per_measurement=3.0)
        assert welfare == pytest.approx(
            3.0 * on_time_measurements(result) - result.total_paid
        )

    def test_zero_value_is_pure_cost(self, result):
        assert platform_welfare(result, 0.0) == pytest.approx(-result.total_paid)

    def test_value_at_max_price_covers_on_time_purchases(self, result):
        """At v = this config's max reward (budget / total required, the
        Eq. 8 tight point), every on-time purchase is weakly profitable,
        so welfare is non-negative whenever all purchases were on time."""
        max_price = 300.0 / 32.0
        welfare = platform_welfare(result, value_per_measurement=max_price)
        late = result.total_measurements - on_time_measurements(result)
        if late == 0:
            assert welfare >= -1e-9

    def test_negative_value_rejected(self, result):
        with pytest.raises(ValueError, match="value_per_measurement"):
            platform_welfare(result, -1.0)


class TestMargin:
    def test_ratio_definition(self, result):
        margin = welfare_margin(result, 3.0)
        assert margin == pytest.approx(
            platform_welfare(result, 3.0) / result.total_paid
        )

    def test_zero_spend_defined(self):
        config = SimulationConfig(
            n_users=2, n_tasks=3, rounds=2, required_measurements=2,
            area_side=3000.0, budget=100.0, user_time_budget=1.0, seed=3,
        )
        result = simulate(config)
        assert result.total_paid == 0.0
        assert welfare_margin(result) == 0.0


class TestMechanismOrdering:
    def test_on_demand_beats_steered_on_welfare(self):
        """Deadline-blind buying loses welfare even when it buys data."""
        config = SimulationConfig(n_users=100)
        on_demand = simulate(config.with_overrides(mechanism="on-demand", seed=2))
        steered = simulate(config.with_overrides(mechanism="steered", seed=2))
        assert platform_welfare(on_demand) > platform_welfare(steered)
