"""Unit tests for repro.metrics.completeness."""

import pytest

from repro.metrics.completeness import (
    completed_fraction,
    completeness_at_round,
    completeness_by_round,
    overall_completeness,
    per_task_completeness,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import simulate


@pytest.fixture(scope="module")
def result():
    return simulate(SimulationConfig(
        n_users=20, n_tasks=8, rounds=10, required_measurements=4,
        deadline_range=(3, 9), area_side=2000.0, budget=300.0, seed=17,
    ))


class TestPerTask:
    def test_fractions_bounded(self, result):
        fractions = per_task_completeness(result)
        assert all(0.0 <= f <= 1.0 for f in fractions.values())

    def test_counts_only_measurements_before_deadline(self, result):
        fractions = per_task_completeness(result)
        for task in result.world.tasks:
            on_time = sum(
                count for round_no, count in task.measurements_by_round.items()
                if round_no <= task.deadline
            )
            expected = min(1.0, on_time / task.required_measurements)
            assert fractions[task.task_id] == pytest.approx(expected)


class TestAggregates:
    def test_overall_is_mean_of_per_task(self, result):
        fractions = per_task_completeness(result)
        assert overall_completeness(result) == pytest.approx(
            sum(fractions.values()) / len(fractions)
        )

    def test_completed_fraction_is_stricter(self, result):
        assert completed_fraction(result) <= overall_completeness(result) + 1e-12

    def test_completed_fraction_counts_full_tasks(self, result):
        fractions = per_task_completeness(result)
        full = sum(1 for f in fractions.values() if f >= 1.0 - 1e-12)
        assert completed_fraction(result) == pytest.approx(full / len(fractions))


class TestByRound:
    def test_monotone_nondecreasing(self, result):
        series = completeness_by_round(result, horizon=12)
        assert all(a <= b + 1e-12 for a, b in zip(series, series[1:]))

    def test_final_round_matches_overall(self, result):
        assert completeness_at_round(result, 12) == pytest.approx(
            overall_completeness(result)
        )

    def test_round_one_counts_only_round_one(self, result):
        value = completeness_at_round(result, 1)
        manual = 0.0
        for task in result.world.tasks:
            received = task.measurements_by_round.get(1, 0)
            manual += min(1.0, received / task.required_measurements)
        assert value == pytest.approx(manual / len(result.world.tasks))

    def test_validation(self, result):
        with pytest.raises(ValueError, match="round_no"):
            completeness_at_round(result, 0)
        with pytest.raises(ValueError, match="horizon"):
            completeness_by_round(result, 0)
