"""The online baselines: stage structure, budget feasibility, scoring."""

import math

import numpy as np
import pytest

from repro.core.levels import DemandLevels
from repro.core.mechanisms import MECHANISM_NAMES, MECHANISMS, RoundView
from repro.dynamics.online import (
    IncentMeMechanism,
    OMGOnlineMechanism,
    stage_plan,
)
from repro.resilience.errors import ConfigError
from repro.scenarios import get_preset
from repro.simulation import SimulationConfig, make_engine


def total_paid(result):
    return sum(m.reward for r in result.rounds for m in r.measurements)


def online_config(**overrides):
    base = dict(
        n_users=40,
        n_tasks=5,
        area_side=1500.0,
        required_measurements=5,
        deadline_range=(3, 8),
        rounds=8,
        budget=200.0,
        seed=5,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestRegistry:
    def test_both_baselines_are_registered(self):
        assert "omg-online" in MECHANISM_NAMES
        assert "incentme" in MECHANISM_NAMES

    def test_registry_builds_them(self):
        omg = MECHANISMS.create("omg-online", budget=100.0, horizon=10)
        assert isinstance(omg, OMGOnlineMechanism)
        incentme = MECHANISMS.create("incentme", budget=100.0)
        assert isinstance(incentme, IncentMeMechanism)

    def test_config_threads_the_horizon_to_omg(self):
        config = online_config(mechanism="omg-online", rounds=12)
        kwargs = config.mechanism_arguments()
        assert kwargs["horizon"] == 12
        assert kwargs["budget"] == config.budget
        engine = make_engine(config)
        assert engine.mechanism.horizon == 12

    def test_config_threads_the_radius_to_incentme(self):
        config = online_config(mechanism="incentme")
        kwargs = config.mechanism_arguments()
        assert kwargs["neighbour_radius"] == config.neighbour_radius
        assert "horizon" not in kwargs


class TestStagePlan:
    @pytest.mark.parametrize("horizon", [1, 2, 7, 8, 15, 16, 100])
    def test_stage_structure(self, horizon):
        plan = stage_plan(horizon, 1000.0)
        ends = [end for end, _ in plan]
        cumulative = [c for _, c in plan]
        assert ends == sorted(ends)
        assert ends[-1] == horizon
        assert cumulative == sorted(cumulative)
        # The total allocation stays strictly under the budget: the
        # reserved first share absorbs sampling-stage estimation error.
        assert cumulative[-1] < 1000.0

    def test_allocations_double_stage_over_stage(self):
        plan = stage_plan(16, 1000.0)
        shares = []
        previous = 0.0
        for _, cumulative in plan:
            shares.append(cumulative - previous)
            previous = cumulative
        for earlier, later in zip(shares, shares[1:]):
            assert later == pytest.approx(2.0 * earlier)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError, match="horizon"):
            stage_plan(0, 100.0)
        with pytest.raises(ValueError, match="budget"):
            stage_plan(10, 0.0)

    def test_cumulative_budget_lookup(self):
        mechanism = OMGOnlineMechanism(budget=1000.0, horizon=16)
        first_end, first_cumulative = mechanism.plan[0]
        assert mechanism.cumulative_budget(1) == first_cumulative
        assert mechanism.cumulative_budget(16) == mechanism.plan[-1][1]
        # Overtime rounds (deadlines outliving the horizon) stay capped
        # at the final stage's allocation.
        assert mechanism.cumulative_budget(99) == mechanism.plan[-1][1]


class TestBudgetFeasibility:
    def test_omg_paid_within_budget_closed_world(self):
        config = online_config(mechanism="omg-online")
        result = make_engine(config).run()
        assert total_paid(result) <= config.budget + 1e-6
        assert total_paid(result) > 0

    def test_omg_paid_within_budget_under_churn(self):
        config = online_config(
            mechanism="omg-online",
            dynamics={
                "user_arrival_rate": 2.0,
                "user_departure_rate": 0.05,
                "task_arrival_rate": 1.0,
                "task_deadline_range": [3, 5],
            },
        )
        result = make_engine(config).run()
        streamed = {
            e.subject_id
            for r in result.rounds
            for e in r.dynamics
            if e.kind == "task_published"
        }
        assert streamed, "the fixture must stream tasks"
        assert total_paid(result) <= config.budget + 1e-6

    def test_incentme_paid_within_budget_closed_world(self):
        config = online_config(mechanism="incentme")
        result = make_engine(config).run()
        assert total_paid(result) <= config.budget + 1e-6
        assert total_paid(result) > 0

    def test_incentme_paid_within_budget_under_churn(self):
        config = online_config(
            mechanism="incentme",
            dynamics={
                "user_arrival_rate": 2.0,
                "user_departure_rate": 0.05,
                "task_arrival_rate": 1.0,
                "task_deadline_range": [3, 5],
            },
        )
        result = make_engine(config).run()
        assert total_paid(result) <= config.budget + 1e-6

    def test_incentme_infeasible_budget_is_a_named_config_error(self):
        # poisson-stream streams most of its tasks; Eq. 9 over all of
        # them leaves B=1000 no positive r0.
        engine = make_engine(
            get_preset("poisson-stream").to_config(mechanism="incentme", seed=0)
        )
        phi = (engine.world.total_required_measurements
               + engine.timeline.streamed_required_total())
        with pytest.raises(ConfigError, match="r0 must be positive") as info:
            engine.step()
        message = str(info.value)
        assert f"{phi} required measurements" in message
        assert f"needs B > {phi * 0.5 * 4:g}" in message

    def test_omg_spend_ledger_tracks_payments(self):
        """OMG's spend is the engine's run ledger: each round's threshold
        is the stage allocation less everything paid before the round,
        spread over the outstanding measurements."""
        config = online_config(mechanism="omg-online")
        engine = make_engine(config)
        mechanism = engine.mechanism
        while not engine.finished:
            paid_before = engine.result.total_paid
            round_no = engine.current_round
            outstanding = sum(t.remaining for t in engine.published_tasks())
            record = engine.step()
            prices = set(record.published_rewards.values())
            if not prices:
                continue
            available = mechanism.cumulative_budget(round_no) - paid_before
            raw = max(0.0, available) / max(1, outstanding)
            threshold = math.floor(raw / mechanism.step) * mechanism.step
            expected = threshold if threshold >= mechanism.step else 1e-6
            assert prices == {expected}
        assert engine.result.total_paid == total_paid(engine.result)


class TestOMGPricing:
    def test_thresholds_sit_on_the_step_grid(self):
        config = online_config(mechanism="omg-online", reward_step=0.5)
        result = make_engine(config).run()
        floor = 1e-6
        for record in result.rounds:
            prices = set(record.published_rewards.values())
            assert len(prices) <= 1, "OMG publishes one uniform threshold"
            for price in prices:
                if price > floor:
                    assert (price / 0.5) == pytest.approx(round(price / 0.5))

    def test_exhausted_stage_publishes_the_price_floor(self):
        mechanism = OMGOnlineMechanism(
            budget=10.0, step=0.5, horizon=8, price_floor=1e-6
        )

        class _Task:
            task_id = 0
            received = 0
            remaining = 5

        view = RoundView(
            round_no=5, active_tasks=[_Task()],
            user_locations=np.zeros((0, 2)),
            total_paid=100.0,  # past every stage allocation
        )
        prices = mechanism.rewards(view)
        assert prices == {0: 1e-6}


class TestIncentMeScoring:
    def test_scores_are_normalised(self):
        config = online_config(mechanism="incentme")
        engine = make_engine(config)
        engine.run()
        demands = engine.mechanism.last_demands
        assert demands
        assert all(0.0 <= score <= 1.0 for score in demands.values())

    def test_open_world_widens_the_schedule_denominator(self):
        closed = online_config(mechanism="incentme")
        churned = online_config(
            mechanism="incentme",
            dynamics={"task_arrival_rate": 2.0, "task_deadline_range": [3, 5]},
        )
        closed_engine = make_engine(closed)
        churned_engine = make_engine(churned)
        # The mechanism initialises on the first step.
        closed_engine.step()
        churned_engine.step()
        # Same budget over strictly more required measurements: the
        # open-world base reward must be strictly smaller.
        assert (
            churned_engine.mechanism.schedule.base_reward
            < closed_engine.mechanism.schedule.base_reward
        )

    def test_crowd_instability_raises_rewards(self):
        mechanism_stable = MECHANISMS.create(
            "incentme", budget=200.0, levels=DemandLevels(5)
        )
        mechanism_churned = MECHANISMS.create(
            "incentme", budget=200.0, levels=DemandLevels(5)
        )

        class _Ledger:
            def __init__(self, presence):
                self._presence = presence

            def mean_presence(self, round_no):
                return self._presence

            def streamed_required_total(self):
                return 0

        from repro.simulation import SimulationEngine

        engine = SimulationEngine(online_config())
        world = engine.world
        mechanism_stable.initialize(world, np.random.default_rng(0))
        mechanism_churned.timeline = _Ledger(presence=0.5)
        mechanism_churned.initialize(world, np.random.default_rng(0))

        view = RoundView(
            round_no=3, active_tasks=world.tasks,
            user_locations=world.positions,
        )
        stable = mechanism_stable.rewards(view)
        churned = mechanism_churned.rewards(view)
        assert sum(churned.values()) >= sum(stable.values())
        assert any(
            churned[tid] > stable[tid] for tid in churned
        ), "instability must raise at least one task's reward"
