"""Eq. 8 on real runs: the platform never pays more than its budget B.

Checked after every round against the engine's run ledger
(``engine.result.total_paid``), the one record of the platform's spend
that the mechanisms also price from (``RoundView.total_paid``).
"""

import pytest

from repro.scenarios import get_preset
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine

CLOSED_WORLD_MECHANISMS = (
    "on-demand", "fixed", "proportional", "adaptive", "policy",
    "omg-online", "incentme",
)


def assert_within_budget_every_round(config: SimulationConfig) -> None:
    engine = SimulationEngine(config)
    while not engine.finished:
        engine.step()
        paid = engine.result.total_paid
        assert paid <= config.budget, (
            f"{config.mechanism} seed {config.seed}: paid {paid} of "
            f"{config.budget} after round {engine.current_round - 1}"
        )


@pytest.mark.parametrize("mechanism", CLOSED_WORLD_MECHANISMS)
@pytest.mark.parametrize("scenario", ["paper-2018", "rush-hour"])
def test_closed_world_presets_stay_within_budget(scenario, mechanism):
    """rush-hour releases half its tasks at round 5: their work must be
    budgeted from round 1 (adaptive used to overspend here)."""
    for seed in range(3):
        assert_within_budget_every_round(
            get_preset(scenario).to_config(seed=seed, mechanism=mechanism)
        )


@pytest.mark.parametrize("scenario", ["poisson-stream", "task-stream-2k"])
def test_omg_online_stays_within_budget_in_open_worlds(scenario):
    for seed in range(3):
        assert_within_budget_every_round(
            get_preset(scenario).to_config(seed=seed, mechanism="omg-online")
        )


def test_never_breaches_on_real_runs():
    """Eq. 8 across seeds on a small default-mechanism world."""
    for seed in range(5):
        assert_within_budget_every_round(SimulationConfig(
            n_users=20, n_tasks=6, rounds=8, required_measurements=4,
            area_side=1500.0, budget=200.0, seed=seed,
        ))
