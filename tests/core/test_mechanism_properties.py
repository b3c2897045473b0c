"""Property-based tests on the mechanism contract (hypothesis).

Random task states and user clouds; for every mechanism the returned
price map must cover exactly the active tasks, stay positive/finite, and
(for ladder-based mechanisms) land on the Eq. 7 ladder within range.
The on-demand, proportional and IncentMe prices must also equal their
scalar compositions exactly, with the Eq. 5 counts read through
``RoundView.neighbour_counts`` from an incremental neighbour counter or
from the view's user positions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.demand import TaskDemandInputs
from repro.core.mechanisms import (
    FixedMechanism,
    OnDemandMechanism,
    ProportionalDemandMechanism,
    RoundView,
    SteeredMechanism,
)
from repro.dynamics.online import IncentMeMechanism
from repro.geometry.grid_index import IncrementalNeighbourCounter
from repro.geometry.point import Point
from repro.geometry.region import RectRegion
from repro.world.generator import World
from repro.world.task import SensingTask
from repro.world.user import MobileUser
from tests.geometry.grid_oracle import GridIndex

REGION = RectRegion.square(1000.0)

coordinates = st.floats(min_value=0.0, max_value=1000.0)

task_states = st.lists(
    st.tuples(
        coordinates, coordinates,
        st.integers(min_value=1, max_value=12),   # deadline
        st.integers(min_value=1, max_value=10),   # required
        st.integers(min_value=0, max_value=10),   # received (capped below)
    ),
    min_size=1,
    max_size=8,
)

user_clouds = st.lists(
    st.tuples(coordinates, coordinates), min_size=0, max_size=15
)

rounds = st.integers(min_value=1, max_value=12)


def build_world(raw_tasks, raw_users):
    tasks = []
    for i, (x, y, deadline, required, received) in enumerate(raw_tasks):
        task = SensingTask(
            task_id=i, location=Point(x, y), deadline=deadline,
            required_measurements=required,
        )
        # Mark partial progress without completing the task.
        for user_id in range(min(received, required - 1)):
            task.record_measurement(1000 + user_id, round_no=1)
        tasks.append(task)
    users = [
        MobileUser(user_id=i, home=Point(x, y), speed=2.0,
                   cost_per_meter=0.002, time_budget=900.0)
        for i, (x, y) in enumerate(raw_users)
    ]
    if not users:
        users = [MobileUser(user_id=0, home=Point(0.0, 0.0), speed=2.0,
                            cost_per_meter=0.002, time_budget=900.0)]
    return World(region=REGION, tasks=tasks, users=users)


def view_for(world, round_no):
    active = [t for t in world.tasks if t.is_active and round_no <= t.deadline]
    return RoundView(
        round_no=round_no,
        active_tasks=active,
        user_locations=world.positions,
    ), active


def mechanisms_for(world):
    budget = 10.0 * sum(t.required_measurements for t in world.tasks)
    return [
        OnDemandMechanism(budget=budget),
        FixedMechanism(budget=budget),
        SteeredMechanism(),
        ProportionalDemandMechanism(budget=budget),
    ]


@settings(max_examples=40, deadline=None)
@given(task_states, user_clouds, rounds)
def test_price_maps_cover_exactly_active_tasks(raw_tasks, raw_users, round_no):
    world = build_world(raw_tasks, raw_users)
    view, active = view_for(world, round_no)
    for mechanism in mechanisms_for(world):
        mechanism.initialize(world, np.random.Generator(np.random.PCG64(0)))
        prices = mechanism.rewards(view)
        assert set(prices) == {t.task_id for t in active}
        for price in prices.values():
            assert np.isfinite(price)
            assert price > 0.0


@settings(max_examples=40, deadline=None)
@given(task_states, user_clouds, rounds)
def test_ladder_mechanisms_price_on_the_ladder(raw_tasks, raw_users, round_no):
    world = build_world(raw_tasks, raw_users)
    view, active = view_for(world, round_no)
    if not active:
        return
    budget = 10.0 * sum(t.required_measurements for t in world.tasks)
    for mechanism in (OnDemandMechanism(budget=budget), FixedMechanism(budget=budget)):
        mechanism.initialize(world, np.random.Generator(np.random.PCG64(1)))
        prices = mechanism.rewards(view)
        schedule = mechanism.schedule
        ladder = [schedule.reward_for_level(level) for level in range(1, 6)]
        for price in prices.values():
            assert any(abs(price - rung) < 1e-9 for rung in ladder)


@settings(max_examples=40, deadline=None)
@given(task_states, user_clouds, rounds)
def test_proportional_prices_within_ladder_range(raw_tasks, raw_users, round_no):
    world = build_world(raw_tasks, raw_users)
    view, active = view_for(world, round_no)
    if not active:
        return
    budget = 10.0 * sum(t.required_measurements for t in world.tasks)
    mechanism = ProportionalDemandMechanism(budget=budget)
    mechanism.initialize(world, np.random.Generator(np.random.PCG64(2)))
    prices = mechanism.rewards(view)
    schedule = mechanism.schedule
    for price in prices.values():
        assert schedule.base_reward - 1e-9 <= price <= schedule.max_reward + 1e-9


RADIUS = 500.0


def scalar_neighbours(tasks, user_locations):
    """Eq. 5 from the scalar grid index: per-task counts over points."""
    points = [Point(x, y) for x, y in user_locations.tolist()]
    return GridIndex(points, cell_size=RADIUS).counts_for(
        [t.location for t in tasks], RADIUS
    )


def scalar_demands(mechanism, round_no, tasks, neighbours):
    return mechanism.calculator.demands([
        TaskDemandInputs(
            round_no=round_no, deadline=t.deadline, received=t.received,
            required=t.required_measurements, neighbours=n,
        )
        for t, n in zip(tasks, neighbours)
    ])


def scalar_on_demand(mechanism, round_no, tasks, neighbours):
    """Eq. 2–7: per-task demands, per-demand ladder prices."""
    demands = scalar_demands(mechanism, round_no, tasks, neighbours)
    prices = {
        t.task_id: mechanism.schedule.reward_for_demand(d)
        for t, d in zip(tasks, demands)
    }
    return prices, {t.task_id: d for t, d in zip(tasks, demands)}


def scalar_proportional(mechanism, round_no, tasks, neighbours):
    """r0 + demand x lambda (N - 1), no level bucketing."""
    demands = scalar_demands(mechanism, round_no, tasks, neighbours)
    schedule = mechanism.schedule
    span = schedule.step * (mechanism.levels.count - 1)
    prices = {
        t.task_id: schedule.base_reward + d * span
        for t, d in zip(tasks, demands)
    }
    return prices, None


def scalar_incentme(mechanism, round_no, tasks, neighbours):
    """A first pricing in a closed world: no volatility, no crowd
    instability, so the score is the scarcity/urgency half alone."""
    w = mechanism.uncertainty_weight
    scores = {}
    for t, n in zip(tasks, neighbours):
        scarcity = 1.0 / (1.0 + float(n))
        urgency = t.remaining / t.required_measurements
        score = (1.0 - w) * 0.5 * (scarcity + urgency)
        scores[t.task_id] = min(1.0, max(0.0, score))
    prices = {
        tid: mechanism.schedule.reward_for_demand(score)
        for tid, score in scores.items()
    }
    return prices, scores


# The example count is left to the profile, so CI's deep run
# (--hypothesis-profile=ci-deep) can raise it.
@settings(deadline=None)
@given(task_states, user_clouds, rounds, st.booleans())
def test_on_demand_rewards_equal_the_scalar_composition(
    raw_tasks, raw_users, round_no, with_counter
):
    """On-demand, proportional and IncentMe, each priced through a
    RoundView that holds a counter (and no positions) or positions
    alone, equal their scalar compositions bit for bit."""
    world = build_world(raw_tasks, raw_users)
    budget = 10.0 * sum(t.required_measurements for t in world.tasks)
    counter = None
    if with_counter:
        # Build a counter as the engine does, then move every other
        # user (mirrored across the region) so the counts it answers
        # with come from movement deltas, not only its initial build.
        positions = world.positions
        counter = IncrementalNeighbourCounter(positions, radius=RADIUS)
        rows = np.arange(0, len(world.users), 2)
        old = positions[rows]
        positions[rows, 0] = 1000.0 - old[:, 0]
        counter.apply_moves(rows, old)
    view, active = view_for(world, round_no)
    neighbours = scalar_neighbours(active, view.user_locations)
    if with_counter:
        # The counter answers Eq. 5; the mechanisms then read no
        # locations.
        view = RoundView(round_no=round_no, active_tasks=active,
                         user_locations=np.zeros((0, 2)),
                         neighbour_counter=counter)
    for mechanism, scalar in (
        (OnDemandMechanism(budget=budget, neighbour_radius=RADIUS),
         scalar_on_demand),
        (ProportionalDemandMechanism(budget=budget, neighbour_radius=RADIUS),
         scalar_proportional),
        (IncentMeMechanism(budget=budget, neighbour_radius=RADIUS),
         scalar_incentme),
    ):
        mechanism.initialize(world, np.random.Generator(np.random.PCG64(3)))
        expected, demands = scalar(mechanism, round_no, active, neighbours)
        assert mechanism.rewards(view) == expected, mechanism.name
        if demands is not None:
            assert mechanism.last_demands == demands, mechanism.name
