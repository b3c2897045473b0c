"""Unit tests for repro.core.rewards — Eq. 7–9 with the paper's constants."""

import pytest

from repro.core.levels import DemandLevels
from repro.core.rewards import RewardSchedule
from repro.resilience.errors import ConfigError


class TestPaperConstants:
    """B = 1000, 20 tasks x 20 measurements, lambda = 0.5, N = 5 -> r0 = 0.5."""

    @pytest.fixture
    def schedule(self):
        return RewardSchedule.from_budget(
            budget=1000.0, total_required_measurements=400, step=0.5
        )

    def test_eq9_base_reward(self, schedule):
        assert schedule.base_reward == pytest.approx(0.5)

    def test_eq7_reward_ladder(self, schedule):
        assert [schedule.reward_for_level(level) for level in range(1, 6)] == pytest.approx(
            [0.5, 1.0, 1.5, 2.0, 2.5]
        )

    def test_max_reward(self, schedule):
        assert schedule.max_reward == pytest.approx(2.5)

    def test_eq8_budget_tightness(self, schedule):
        """With Eq. 9's r0 the worst case exactly exhausts the budget."""
        assert schedule.worst_case_payout(400) == pytest.approx(1000.0)
        assert schedule.respects_budget(1000.0, 400)
        assert not schedule.respects_budget(999.0, 400)

    def test_reward_for_demand_goes_through_levels(self, schedule):
        assert schedule.reward_for_demand(0.0) == pytest.approx(0.5)
        assert schedule.reward_for_demand(0.3) == pytest.approx(1.0)
        assert schedule.reward_for_demand(1.0) == pytest.approx(2.5)

    def test_vector_form(self, schedule):
        assert schedule.rewards_for_demands([0.0, 1.0]) == pytest.approx([0.5, 2.5])


class TestValidation:
    def test_budget_too_small_raises(self):
        # r0 = 100/400 - 2 < 0: the budget cannot pay top-level rewards.
        with pytest.raises(ValueError, match="r0 must be positive") as info:
            RewardSchedule.from_budget(
                budget=100.0, total_required_measurements=400, step=0.5
            )
        assert isinstance(info.value, ConfigError)
        for fragment in ("B=100", "400 required measurements", "lambda=0.5",
                         "N=5", "needs B > 800"):
            assert fragment in str(info.value)

    def test_non_positive_budget(self):
        with pytest.raises(ValueError, match="budget"):
            RewardSchedule.from_budget(budget=0.0, total_required_measurements=10)

    def test_bad_measurement_total(self):
        with pytest.raises(ValueError, match="total_required_measurements"):
            RewardSchedule.from_budget(budget=10.0, total_required_measurements=0)

    def test_negative_step(self):
        with pytest.raises(ValueError, match="lambda"):
            RewardSchedule(base_reward=1.0, step=-0.5, levels=DemandLevels(5))

    def test_level_out_of_range(self):
        schedule = RewardSchedule(base_reward=1.0, step=0.5, levels=DemandLevels(3))
        with pytest.raises(ValueError, match="level"):
            schedule.reward_for_level(0)
        with pytest.raises(ValueError, match="level"):
            schedule.reward_for_level(4)

    def test_negative_worst_case_input(self):
        schedule = RewardSchedule(base_reward=1.0, step=0.5, levels=DemandLevels(3))
        with pytest.raises(ValueError, match="non-negative"):
            schedule.worst_case_payout(-1)


class TestGeneralSchedules:
    def test_zero_step_flattens_rewards(self):
        schedule = RewardSchedule(base_reward=2.0, step=0.0, levels=DemandLevels(5))
        assert schedule.reward_for_level(1) == schedule.reward_for_level(5) == 2.0

    def test_reward_monotone_in_level(self):
        schedule = RewardSchedule(base_reward=1.0, step=0.25, levels=DemandLevels(8))
        rewards = [schedule.reward_for_level(level) for level in range(1, 9)]
        assert all(a < b for a, b in zip(rewards, rewards[1:]))

    def test_single_level_schedule(self):
        schedule = RewardSchedule.from_budget(
            budget=100.0, total_required_measurements=50, step=0.5,
            levels=DemandLevels(1),
        )
        assert schedule.base_reward == pytest.approx(2.0)
        assert schedule.max_reward == pytest.approx(2.0)
