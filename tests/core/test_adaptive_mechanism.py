"""Tests for the budget-recycling adaptive mechanism (extension)."""

import numpy as np
import pytest

from repro.core.mechanisms import AdaptiveBudgetMechanism, OnDemandMechanism, RoundView
from repro.geometry.region import RectRegion
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import simulate
from repro.world.generator import World
from repro.world.task import TaskTable
from tests.conftest import make_task, make_user


@pytest.fixture
def world():
    region = RectRegion.square(1000.0)
    tasks = [
        make_task(0, 200.0, 200.0, deadline=6, required=4),
        make_task(1, 800.0, 800.0, deadline=10, required=4),
    ]
    users = [make_user(i, 250.0 + 20 * i, 250.0) for i in range(3)]
    return World(region=region, tasks=tasks, users=users)


def init(mechanism, world, seed=0):
    mechanism.initialize(world, np.random.Generator(np.random.PCG64(seed)))
    return mechanism


def view_of(world, round_no, total_paid=0.0):
    return RoundView(
        round_no=round_no,
        active_tasks=world.tasks.take(world.tasks.published(round_no)),
        user_locations=world.positions,
        total_paid=total_paid,
    )


class TestPricing:
    def test_round_one_matches_static_on_demand(self, world):
        """With nothing spent, adaptive re-derivation reproduces Eq. 9."""
        adaptive = init(AdaptiveBudgetMechanism(budget=20.0), world)
        static = init(OnDemandMechanism(budget=20.0), world)
        assert adaptive.rewards(view_of(world, 1)) == static.rewards(view_of(world, 1))

    def test_prices_never_below_static(self, world):
        adaptive = init(AdaptiveBudgetMechanism(budget=20.0), world)
        static_base = adaptive.schedule.base_reward
        adaptive.rewards(view_of(world, 1))
        # Burn some task progress, then reprice repeatedly.
        world.tasks.record([0], [0], round_no=1)
        for round_no in range(2, 6):
            prices = adaptive.rewards(view_of(world, round_no))
            assert all(p >= static_base - 1e-9 for p in prices.values())

    def test_expired_work_recycles_into_higher_prices(self, world):
        """Expiring a task frees its worst-case reserve for the survivor."""
        adaptive = init(AdaptiveBudgetMechanism(budget=20.0), world)
        before = adaptive.rewards(view_of(world, 1))[1]
        world.tasks.expired[0] = True
        adaptive.rewards(view_of(world, 2))
        # Base reward rose: half the work vanished, no money spent.
        assert adaptive.schedule.base_reward > 20.0 / 8.0 - 2.0  # sanity
        after = adaptive.rewards(view_of(world, 3))[1]
        assert after >= before

    def test_settlement_counts_completed_tasks(self, world):
        """Measurements on a task that completes must still be charged:
        the remaining budget is B less the view's ``total_paid``, which
        includes them after the task leaves the view."""
        adaptive = init(AdaptiveBudgetMechanism(budget=40.0), world)
        prices = adaptive.rewards(view_of(world, 1))
        for user_id in range(4):
            world.tasks.record([0], [user_id], round_no=1)
        assert not world.tasks.active[0]  # completed -> leaves the view
        paid = 4 * prices[0]
        adaptive.rewards(view_of(world, 2, total_paid=paid))
        top = adaptive.schedule.reward_for_level(adaptive.levels.count)
        assert top == pytest.approx((40.0 - paid) / world.tasks[1].remaining)

    def test_unreleased_work_is_budgeted_from_round_one(self, world):
        """A task published later is still owed its worst case: round-1
        prices must leave room for it (the burst scenario's Eq. 8)."""
        tasks = world.tasks
        world.tasks = TaskTable(
            tasks.ids, tasks.locations, tasks.deadline, tasks.required, [1, 5]
        )
        adaptive = init(AdaptiveBudgetMechanism(budget=20.0), world)
        static = init(OnDemandMechanism(budget=20.0), world)
        view = view_of(world, 1)
        assert [t.task_id for t in view.active_tasks] == [0]
        assert adaptive.rewards(view) == static.rewards(view)
        assert adaptive.schedule.base_reward == static.schedule.base_reward


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def config(self):
        return SimulationConfig(
            n_users=25, n_tasks=8, rounds=10, required_measurements=4,
            area_side=2000.0, budget=200.0, mechanism="adaptive", seed=3,
        )

    def test_budget_never_exceeded(self, config):
        """The recycling must preserve the Eq. 8 guarantee."""
        for seed in range(8):
            result = simulate(config.with_overrides(seed=seed))
            assert result.total_paid <= config.budget + 1e-9

    def test_runs_and_collects(self, config):
        result = simulate(config)
        assert result.total_measurements > 0

    def test_spends_at_least_as_much_as_static(self, config):
        """Recycling exists to spend the slack: payouts should not shrink."""
        paid_adaptive = []
        paid_static = []
        for seed in range(5):
            paid_adaptive.append(
                simulate(config.with_overrides(seed=seed)).total_paid
            )
            paid_static.append(
                simulate(config.with_overrides(seed=seed, mechanism="on-demand")).total_paid
            )
        assert np.mean(paid_adaptive) >= np.mean(paid_static) - 1e-9

    def test_registered_in_factory(self):
        from repro.core.mechanisms import MECHANISMS

        assert MECHANISMS.create("adaptive").name == "adaptive"
