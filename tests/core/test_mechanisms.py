"""Unit tests for the four incentive mechanisms and their shared contract."""

import numpy as np
import pytest

from repro.core.demand import DemandWeights
from repro.core.mechanisms import (
    FixedMechanism,
    OnDemandMechanism,
    ProportionalDemandMechanism,
    RoundView,
    SteeredMechanism,
)
from repro.core.mechanisms.registry import MECHANISM_NAMES, MECHANISMS
from repro.world.generator import World
from repro.world.task import TaskTable
from tests.conftest import make_task, make_user


@pytest.fixture
def world(region):
    tasks = [
        make_task(0, 100.0, 100.0, deadline=4, required=5),
        make_task(1, 900.0, 900.0, deadline=12, required=5),
        make_task(2, 500.0, 500.0, deadline=8, required=5),
    ]
    users = [make_user(i, 120.0 + 10 * i, 120.0) for i in range(4)]
    return World(region=region, tasks=tasks, users=users)


def view_of(world, round_no=1):
    return RoundView(
        round_no=round_no,
        active_tasks=world.tasks.take(world.tasks.active),
        user_locations=world.positions,
    )


def init(mechanism, world, seed=0):
    mechanism.initialize(world, np.random.Generator(np.random.PCG64(seed)))
    return mechanism


class TestRoundView:
    def test_round_validated(self, world):
        with pytest.raises(ValueError, match="round_no"):
            RoundView(round_no=0, active_tasks=[], user_locations=np.zeros((0, 2)))

    def test_neighbour_counts_from_positions(self, world):
        # Users stand at (120..150, 120): all within 600 m of tasks 0 and
        # 2, three within 50 m of task 0.
        view = view_of(world)
        assert view.neighbour_counts(world.tasks, 600.0).tolist() == [4, 0, 4]
        assert view.neighbour_counts(world.tasks, 50.0).tolist() == [3, 0, 0]

    def test_neighbour_counts_follow_moved_users(self, world):
        # The view reads the engine's live position array: users moved
        # in place after it was built are counted where they stand.
        view = view_of(world)
        world.positions[:2] = [[900.0, 880.0], [100.0, 100.0]]
        assert view.neighbour_counts(world.tasks, 50.0).tolist() == [2, 1, 0]
        assert view.neighbour_counts(world.tasks, 600.0).tolist() == [3, 1, 4]

    def test_neighbour_counts_without_users_are_zeros(self, world):
        view = RoundView(
            round_no=1, active_tasks=world.tasks, user_locations=np.zeros((0, 2)),
        )
        assert view.neighbour_counts(world.tasks, 600.0).tolist() == [0, 0, 0]


class TestOnDemand:
    def test_prices_every_active_task(self, world):
        mechanism = init(OnDemandMechanism(budget=100.0), world)
        prices = mechanism.rewards(view_of(world))
        assert set(prices) == {0, 1, 2}

    def test_prices_on_the_eq7_ladder(self, world):
        mechanism = init(OnDemandMechanism(budget=100.0, step=0.5), world)
        schedule = mechanism.schedule
        ladder = {schedule.reward_for_level(level) for level in range(1, 6)}
        prices = mechanism.rewards(view_of(world))
        assert all(any(abs(p - r) < 1e-9 for r in ladder) for p in prices.values())

    def test_remote_task_priced_above_crowded_task(self, world):
        """All users sit next to task 0; task 1 is far: scarcity + nothing
        else differing much should put task 1's price >= task 0's."""
        mechanism = init(OnDemandMechanism(budget=100.0, neighbour_radius=200.0), world)
        prices = mechanism.rewards(view_of(world, round_no=1))
        assert prices[1] >= prices[0]

    def test_approaching_deadline_raises_price(self, world):
        mechanism = init(OnDemandMechanism(budget=100.0), world)
        early = mechanism.rewards(view_of(world, round_no=1))
        late = mechanism.rewards(view_of(world, round_no=4))
        # Task 0's deadline is round 4: demand can only have grown.
        assert late[0] >= early[0]

    def test_progress_lowers_demand(self, world):
        mechanism = init(OnDemandMechanism(budget=100.0), world)
        before = mechanism.rewards(view_of(world))
        demand_before = mechanism.last_demands[2]
        for user_id in range(4):
            world.tasks.record([2], [user_id], round_no=1)
        mechanism.rewards(view_of(world, round_no=2))
        demand_after = mechanism.last_demands[2]
        assert demand_after < demand_before

    def test_requires_initialize(self, world):
        mechanism = OnDemandMechanism(budget=100.0)
        with pytest.raises(RuntimeError, match="initialize"):
            mechanism.rewards(view_of(world))

    def test_empty_round_gives_empty_prices(self, world):
        mechanism = init(OnDemandMechanism(budget=100.0), world)
        empty = RoundView(round_no=1, active_tasks=TaskTable.empty(),
                          user_locations=np.zeros((0, 2)))
        assert mechanism.rewards(empty) == {}

    def test_weights_and_matrix_mutually_exclusive(self):
        from repro.core.ahp import example_comparison_matrix

        with pytest.raises(ValueError, match="not both"):
            OnDemandMechanism(
                weights=DemandWeights(0.5, 0.3, 0.2),
                comparison_matrix=example_comparison_matrix(),
            )

    def test_bad_radius(self):
        with pytest.raises(ValueError, match="neighbour_radius"):
            OnDemandMechanism(neighbour_radius=0.0)

    def test_budget_too_small_fails_at_initialize(self, world):
        mechanism = OnDemandMechanism(budget=1.0)
        with pytest.raises(ValueError, match="r0 must be positive"):
            init(mechanism, world)


class TestFixed:
    def test_prices_frozen_across_rounds(self, world):
        mechanism = init(FixedMechanism(budget=100.0), world)
        first = mechanism.rewards(view_of(world, round_no=1))
        world.tasks.record([0], [0], round_no=1)
        second = mechanism.rewards(view_of(world, round_no=5))
        assert first == second

    def test_prices_on_ladder(self, world):
        mechanism = init(FixedMechanism(budget=100.0, step=0.5), world)
        schedule = mechanism.schedule
        ladder = {schedule.reward_for_level(level) for level in range(1, 6)}
        prices = mechanism.rewards(view_of(world))
        assert all(any(abs(p - r) < 1e-9 for r in ladder) for p in prices.values())

    def test_levels_depend_on_seed(self, region):
        tasks = [make_task(i, 100.0 * (i + 1), 100.0, required=5) for i in range(8)]
        users = [make_user(0, 50.0, 50.0)]
        world = World(region=region, tasks=tasks, users=users)
        a = init(FixedMechanism(budget=200.0), world, seed=1).rewards(view_of(world))
        b = init(FixedMechanism(budget=200.0), world, seed=2).rewards(view_of(world))
        assert a != b

    def test_requires_initialize(self, world):
        with pytest.raises(RuntimeError, match="initialize"):
            FixedMechanism().rewards(view_of(world))


class TestSteered:
    def test_eq13_decreasing_in_measurements(self):
        mechanism = SteeredMechanism()
        rewards = [mechanism.reward_for(x) for x in range(20)]
        assert all(a > b for a, b in zip(rewards, rewards[1:]))

    def test_floor_is_base_reward(self):
        mechanism = SteeredMechanism(base_reward=0.5)
        assert mechanism.reward_for(500) == pytest.approx(0.5, abs=1e-6)

    def test_scaled_defaults_range(self):
        """DESIGN.md §3: scaled variant prices in (0.5, 2.31]."""
        mechanism = SteeredMechanism()
        top = mechanism.reward_for(0)
        assert 2.2 < top < 2.4
        assert mechanism.reward_for(100) > 0.5

    def test_paper_scale_constants(self):
        mechanism = SteeredMechanism.paper_scale()
        assert mechanism.base_reward == 5.0
        assert mechanism.quality_weight == 100.0
        top = mechanism.reward_for(0)
        assert 5.0 < top <= 25.0

    def test_quality_model_saturates(self):
        mechanism = SteeredMechanism()
        assert mechanism.quality(0) == 0.0
        assert mechanism.quality(1000) == pytest.approx(1.0)
        assert mechanism.quality_improvement(0) > mechanism.quality_improvement(5)

    def test_prices_follow_task_progress(self, world):
        mechanism = init(SteeredMechanism(), world)
        before = mechanism.rewards(view_of(world))
        world.tasks.record([0], [0], round_no=1)
        world.tasks.record([0], [1], round_no=1)
        after = mechanism.rewards(view_of(world, round_no=2))
        assert after[0] < before[0]
        assert after[1] == pytest.approx(before[1])

    def test_validation(self):
        with pytest.raises(ValueError, match="base_reward"):
            SteeredMechanism(base_reward=0.0)
        with pytest.raises(ValueError, match="decay"):
            SteeredMechanism(decay=0.0)
        with pytest.raises(ValueError, match="measurements"):
            SteeredMechanism().quality(-1)


class TestProportional:
    def test_prices_in_schedule_range(self, world):
        mechanism = init(ProportionalDemandMechanism(budget=100.0), world)
        prices = mechanism.rewards(view_of(world))
        schedule = mechanism.schedule
        for price in prices.values():
            assert schedule.base_reward - 1e-9 <= price <= schedule.max_reward + 1e-9

    def test_prices_continuous_not_on_ladder(self, world):
        """Unlike on-demand, proportional prices need not hit ladder rungs."""
        mechanism = init(ProportionalDemandMechanism(budget=100.0), world)
        prices = mechanism.rewards(view_of(world))
        schedule = mechanism.schedule
        ladder = [schedule.reward_for_level(level) for level in range(1, 6)]
        off_ladder = [
            p for p in prices.values()
            if all(abs(p - r) > 1e-6 for r in ladder)
        ]
        assert off_ladder  # at least one strictly between rungs

    def test_requires_initialize(self, world):
        with pytest.raises(RuntimeError, match="initialize"):
            ProportionalDemandMechanism().rewards(view_of(world))


class TestFactory:
    def test_all_registered_names_build(self):
        for name in MECHANISM_NAMES:
            assert MECHANISMS.create(name).name == name

    def test_kwargs_forwarded(self):
        mechanism = MECHANISMS.create("steered", decay=0.4)
        assert mechanism.decay == 0.4

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="on-demand"):
            MECHANISMS.create("generous")


class TestContractValidation:
    def test_price_map_must_cover_exactly_active_tasks(self, world):
        """The base-class validator rejects missing/extra task ids."""
        mechanism = init(FixedMechanism(budget=100.0), world)
        view = view_of(world)
        # Sabotage the cached prices to drop a task.
        del mechanism._prices[0]
        with pytest.raises(KeyError):
            mechanism.rewards(view)
