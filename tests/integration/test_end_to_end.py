"""End-to-end integration: the full paper configuration, one run each way."""

import pytest

from repro.metrics import MetricsSummary
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import simulate


class TestPaperScaleRun:
    """One run at the paper's exact Section VI constants."""

    @pytest.fixture(scope="class")
    def result(self):
        return simulate(SimulationConfig(n_users=100, seed=42))

    def test_completes_within_horizon(self, result):
        assert 1 <= result.rounds_played <= 15

    def test_budget_never_exceeded(self, result):
        assert result.total_paid <= 1000.0 + 1e-9

    def test_rewards_on_paper_ladder(self, result):
        """Every published reward is one of r0 + k*lambda, k in 0..4."""
        ladder = {0.5, 1.0, 1.5, 2.0, 2.5}
        for record in result.rounds:
            for price in record.published_rewards.values():
                assert any(abs(price - rung) < 1e-9 for rung in ladder)

    def test_healthy_participation(self, result):
        summary = MetricsSummary.from_result(result)
        assert summary.coverage >= 0.9
        assert summary.overall_completeness >= 0.7
        assert summary.total_measurements >= 200

    def test_world_state_consistent_with_history(self, result):
        counts = result.measurements_by_task()
        for task in result.world.tasks:
            assert task.received == counts[task.task_id]
            assert task.received <= task.required_measurements


class TestCrossComponentConsistency:
    def test_user_reward_totals_match_platform_payout(self):
        result = simulate(SimulationConfig(n_users=40, seed=9))
        paid_to_users = sum(
            r.reward for record in result.rounds for r in record.user_records
        )
        # Every dollar the platform paid landed with some user: each
        # user's earned reward is the sum of its accepted measurements.
        assert paid_to_users == pytest.approx(result.total_paid)
        for record in result.rounds:
            for r in record.user_records:
                assert r.reward == pytest.approx(sum(
                    m.reward for m in record.measurements
                    if m.user_id == r.user_id
                ))

    def test_round_records_sum_to_user_accounting(self):
        result = simulate(SimulationConfig(n_users=40, seed=10))
        for user, profit in zip(result.world.users, result.user_profits()):
            from_records = sum(
                r.profit
                for record in result.rounds
                for r in record.user_records
                if r.user_id == user.user_id
            )
            assert from_records == pytest.approx(profit)

    def test_all_mechanism_selector_combinations(self):
        config = SimulationConfig(
            n_users=15, n_tasks=6, rounds=5, required_measurements=3,
            area_side=1500.0, budget=150.0, seed=4,
        )
        for mechanism in ("on-demand", "fixed", "steered", "proportional"):
            for selector in ("dp", "greedy", "greedy-2opt"):
                result = simulate(config.with_overrides(
                    mechanism=mechanism, selector=selector
                ))
                assert result.rounds_played >= 1
                assert result.total_paid >= 0.0
