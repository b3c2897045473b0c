"""Named scenario presets, from the paper's bench to a million-user city.

Every preset validates at import time (:class:`ScenarioSpec` builds its
config eagerly), and the property tests additionally generate each
preset's world and check its invariants.  Budgets respect Eq. 9:
``budget / total_required > step * (levels - 1)`` so the base reward
:math:`r_0` stays positive.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.scenarios.spec import ScenarioSpec

PAPER_2018 = ScenarioSpec(
    name="paper-2018",
    description=(
        "The paper's Section VI reference setup: 100 walkers, 20 tasks "
        "released at round 1, 15 rounds, AHP-weighted on-demand pricing, "
        "exact DP task selection."
    ),
    config=dict(
        n_users=100,
        n_tasks=20,
        area_side=3000.0,
        required_measurements=20,
        deadline_range=[5, 15],
        rounds=15,
        budget=1000.0,
        reward_step=0.5,
        level_count=5,
        neighbour_radius=500.0,
        user_speed=2.0,
        user_time_budget=900.0,
        cost_per_meter=0.002,
        mechanism="on-demand",
        selector="dp",
        mobility="follow-path",
    ),
)

POISSON_STREAM = ScenarioSpec(
    name="poisson-stream",
    description=(
        "Paper-sized world where most tasks are *published mid-run* as "
        "a Poisson stream (the dynamics block) on top of a small seed "
        "batch — the open-world dynamic-arrival stress case for the "
        "demand mechanism's deadline factor."
    ),
    config=dict(
        n_users=100,
        n_tasks=8,
        rounds=15,
        budget=1000.0,
        selector="dp",
        dynamics={
            "task_arrival_rate": 1.5,
            "task_deadline_range": [4, 8],
        },
    ),
)

POISSON_CHURN = ScenarioSpec(
    name="poisson-churn",
    description=(
        "Open-world churn at bench scale: users arrive as a Poisson "
        "stream and depart with a per-round hazard while tasks renew "
        "expiring deadlines — the reference scenario for the dynamics "
        "bit-identity contract (run = stepped session = resumed)."
    ),
    config=dict(
        n_users=60,
        n_tasks=10,
        rounds=10,
        budget=800.0,
        required_measurements=10,
        selector="greedy",
        dynamics={
            "user_arrival_rate": 3.0,
            "user_departure_rate": 0.05,
            "deadline_renewal_prob": 0.3,
            "max_deadline_renewals": 1,
        },
    ),
)

TASK_STREAM_2K = ScenarioSpec(
    name="task-stream-2k",
    description=(
        "CI-sized open-world stress: 2k users with mild churn and a "
        "steady mid-run task stream on a 12 km side — the dynamics "
        "benchmark scenario (churn-on vs churn-off rounds/s) and the "
        "stage for comparing on-demand vs omg-online vs incentme under "
        "an open world."
    ),
    config=dict(
        n_users=2000,
        n_tasks=40,
        area_side=12000.0,
        rounds=10,
        budget=15000.0,
        deadline_range=[3, 6],
        selector="greedy",
        distance_dtype="float32",
        stream_rounds=True,
        dynamics={
            "user_arrival_rate": 20.0,
            "user_departure_rate": 0.01,
            "task_arrival_rate": 6.0,
            "task_deadline_range": [3, 6],
        },
    ),
)

RUSH_HOUR = ScenarioSpec(
    name="rush-hour",
    description=(
        "A burst of tasks lands mid-run on a heterogeneous crowd: half "
        "are stationary commuters, a fifth are fast cyclists wandering "
        "between rounds, the rest walk the paper's default."
    ),
    config=dict(
        n_users=150,
        n_tasks=30,
        rounds=12,
        budget=1800.0,
        arrival="burst",
        arrival_kwargs={"round_no": 5, "fraction": 0.5},
        population=[
            {
                "name": "commuters",
                "fraction": 0.5,
                "mobility": "stationary",
                "speed": [1.0, 2.0],
            },
            {
                "name": "cyclists",
                "fraction": 0.2,
                "mobility": "random-waypoint",
                "speed": [4.0, 6.0],
            },
        ],
        selector="greedy",
    ),
)

CITY_2K = ScenarioSpec(
    name="city-2k",
    description=(
        "Downsized large-scale smoke: 2k users / 200 tasks on a 12 km "
        "side, float32 distance pipeline, streamed rounds — the CI-sized "
        "stand-in for city-50k."
    ),
    config=dict(
        n_users=2000,
        n_tasks=200,
        area_side=12000.0,
        rounds=8,
        budget=12000.0,
        deadline_range=[3, 8],
        arrival="poisson",
        participation_rate=0.8,
        selector="greedy",
        distance_dtype="float32",
        stream_rounds=True,
    ),
)

CITY_50K = ScenarioSpec(
    name="city-50k",
    description=(
        "City-scale stress: 50k users / 2k tasks on a 30 km side with a "
        "heterogeneous population (stationary commuters, fast couriers), "
        "Poisson task arrivals, float32 distance pipeline, streamed rounds."
    ),
    config=dict(
        n_users=50_000,
        n_tasks=2000,
        area_side=30_000.0,
        rounds=10,
        budget=120_000.0,
        deadline_range=[3, 10],
        user_time_budget=600.0,
        arrival="poisson",
        participation_rate=0.6,
        population=[
            {
                "name": "commuters",
                "fraction": 0.4,
                "mobility": "stationary",
                "speed": [1.5, 2.5],
            },
            {
                "name": "couriers",
                "fraction": 0.1,
                "mobility": "random-waypoint",
                "speed": [3.0, 5.0],
            },
        ],
        selector="greedy",
        distance_dtype="float32",
        stream_rounds=True,
    ),
)

CITY_1M = ScenarioSpec(
    name="city-1m",
    description=(
        "Million-user stress: 1M users / 5k tasks on a 100 km side, "
        "mostly-stationary commuters plus roaming couriers, Poisson "
        "arrivals, the float32 distance pipeline "
        "and streamed rounds (peak RSS stays flat in the round count)."
    ),
    config=dict(
        n_users=1_000_000,
        n_tasks=5000,
        area_side=100_000.0,
        rounds=5,
        budget=600_000.0,
        deadline_range=[3, 5],
        user_time_budget=600.0,
        arrival="poisson",
        participation_rate=0.4,
        population=[
            {
                "name": "commuters",
                "fraction": 0.5,
                "mobility": "stationary",
                "speed": [1.5, 2.5],
            },
            {
                "name": "couriers",
                "fraction": 0.05,
                "mobility": "random-waypoint",
                "speed": [3.0, 5.0],
            },
        ],
        selector="greedy",
        distance_dtype="float32",
        stream_rounds=True,
    ),
)

#: Registration order is display order for ``repro scenarios``.
PRESETS: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        PAPER_2018,
        POISSON_STREAM,
        POISSON_CHURN,
        TASK_STREAM_2K,
        RUSH_HOUR,
        CITY_2K,
        CITY_50K,
        CITY_1M,
    )
}


def preset_names() -> Tuple[str, ...]:
    """Every built-in scenario name, in registration order."""
    return tuple(PRESETS)


def get_preset(name: str) -> ScenarioSpec:
    """Look a preset up by name.

    Raises:
        ValueError: for an unknown name (lists the valid ones).
    """
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; valid: {', '.join(sorted(PRESETS))}"
        ) from None
