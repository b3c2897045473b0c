"""Unit tests for repro.simulation.config."""

import dataclasses

import pytest

from repro import api
from repro.core.levels import DemandLevels
from repro.core.mechanisms import MECHANISM_NAMES
from repro.resilience.errors import ConfigError
from repro.scenarios import ScenarioSpec
from repro.simulation.config import EQ9_MECHANISMS, SimulationConfig


class TestDefaults:
    def test_paper_constants(self):
        config = SimulationConfig()
        assert config.n_tasks == 20
        assert config.area_side == 3000.0
        assert config.required_measurements == 20
        assert config.deadline_range == (5, 15)
        assert config.budget == 1000.0
        assert config.reward_step == 0.5
        assert config.level_count == 5
        assert config.user_speed == 2.0
        assert config.cost_per_meter == 0.002

    def test_total_required_measurements(self):
        assert SimulationConfig().total_required_measurements == 400

    def test_region(self):
        assert SimulationConfig().region.width == 3000.0


class TestValidation:
    @pytest.mark.parametrize(
        "field,value,pattern",
        [
            ("n_users", 0, "n_users"),
            ("n_tasks", 0, "n_tasks"),
            ("rounds", 0, "rounds"),
            ("area_side", -1.0, "area_side"),
            ("budget", 0.0, "budget"),
            ("level_count", 0, "level_count"),
            ("layout", "hexagonal", "layout"),
            ("deadline_range", (0, 5), "deadline_range"),
            ("deadline_range", (6, 5), "deadline_range"),
        ],
    )
    def test_bad_values_rejected(self, field, value, pattern):
        with pytest.raises(ValueError, match=pattern):
            SimulationConfig(**{field: value})

    def test_fixed_prices_cannot_meet_streamed_tasks(self):
        """Fixed draws its prices before round 1, so a task streamed in
        later has none (it used to die with a bare KeyError mid-run)."""
        with pytest.raises(ConfigError) as excinfo:
            SimulationConfig(
                mechanism="fixed", dynamics={"task_arrival_rate": 1.5}
            )
        message = str(excinfo.value)
        assert message.startswith("mechanism 'fixed'")
        assert "dynamics.task_arrival_rate=1.5" in message
        with pytest.raises(ConfigError):
            ScenarioSpec.from_mapping({
                "name": "s", "config": {"dynamics": {"task_arrival_rate": 1.0}},
            }).to_config(mechanism="fixed")
        # User churn alone publishes no new task.
        SimulationConfig(mechanism="fixed", dynamics={"user_arrival_rate": 1.0})


class TestOverrides:
    def test_with_overrides_replaces(self):
        config = SimulationConfig().with_overrides(n_users=55, seed=9)
        assert config.n_users == 55
        assert config.seed == 9

    def test_with_overrides_preserves_rest(self):
        config = SimulationConfig(budget=500.0).with_overrides(n_users=55)
        assert config.budget == 500.0

    def test_original_unchanged(self):
        base = SimulationConfig()
        base.with_overrides(n_users=55)
        assert base.n_users == 100

    def test_unknown_keys_named_in_error(self):
        with pytest.raises(ValueError) as excinfo:
            SimulationConfig().with_overrides(n_userz=5, warp_factor=9)
        message = str(excinfo.value)
        assert "n_userz" in message
        assert "warp_factor" in message

    def test_unknown_key_error_lists_valid_fields(self):
        with pytest.raises(ValueError, match="n_users"):
            SimulationConfig().with_overrides(n_userz=5)


class TestRetiredEngineKey:
    """``engine`` is no field any more; saved specs that still carry one
    of its two legacy values load, and the value changes nothing."""

    SMALL = dict(n_users=20, n_tasks=5, rounds=4, seed=3)

    def test_no_engine_field(self):
        names = {f.name for f in dataclasses.fields(SimulationConfig)}
        assert "engine" not in names

    def test_legacy_values_accepted_and_ignored(self):
        plain = SimulationConfig().with_overrides(**self.SMALL)
        for legacy in ("scalar", "batched"):
            config = SimulationConfig().with_overrides(engine=legacy, **self.SMALL)
            assert config == plain
        fingerprints = {
            legacy: api.result_fingerprint(api.simulate(engine=legacy, **self.SMALL))
            for legacy in ("scalar", "batched")
        }
        assert fingerprints["scalar"] == fingerprints["batched"] == (
            api.result_fingerprint(api.simulate(**self.SMALL))
        )

    def test_legacy_value_in_a_scenario_spec(self):
        spec = ScenarioSpec("old", config=dict(self.SMALL, engine="batched"))
        assert spec.to_config() == SimulationConfig().with_overrides(**self.SMALL)

    @pytest.mark.parametrize("value", ["vectorised", "", None, "Scalar"])
    def test_other_values_name_the_retirement(self, value):
        with pytest.raises(ConfigError, match="retired"):
            SimulationConfig().with_overrides(engine=value)
        with pytest.raises(ConfigError, match="retired"):
            ScenarioSpec("old", config={"engine": value})


class TestMechanismArguments:
    def test_on_demand_gets_budget_knobs(self):
        args = SimulationConfig(mechanism="on-demand").mechanism_arguments()
        assert args["budget"] == 1000.0
        assert args["step"] == 0.5
        assert isinstance(args["levels"], DemandLevels)
        assert args["neighbour_radius"] == 500.0

    def test_fixed_gets_no_radius(self):
        args = SimulationConfig(mechanism="fixed").mechanism_arguments()
        assert "neighbour_radius" not in args
        assert args["budget"] == 1000.0

    def test_steered_gets_only_explicit_kwargs(self):
        config = SimulationConfig(
            mechanism="steered", mechanism_kwargs={"decay": 0.3}
        )
        assert config.mechanism_arguments() == {"decay": 0.3}

    def test_explicit_kwargs_override_derived(self):
        config = SimulationConfig(
            mechanism="on-demand", mechanism_kwargs={"budget": 123.0}
        )
        assert config.mechanism_arguments()["budget"] == 123.0

    def test_world_generator_mirrors_config(self):
        generator = SimulationConfig(n_users=33).world_generator()
        assert generator.n_users == 33
        assert generator.n_tasks == 20
        assert generator.user_time_budget == 900.0


class TestBaseReward:
    """``SimulationConfig.base_reward`` derives Eq. 9's r0 without a world."""

    #: Σφ = 30 x 20 = 600 measurements: B / Σφ = 1.67 < λ (N - 1) = 2.
    INFEASIBLE = dict(n_users=40, n_tasks=30, rounds=2)

    def test_known_infeasible_config_fails(self):
        with pytest.raises(ConfigError, match="base reward r0 must be positive"):
            SimulationConfig(**self.INFEASIBLE).base_reward()

    def test_matches_the_engine_schedule(self):
        engine = api.make_engine(SimulationConfig(n_users=20, seed=3))
        engine.step()
        assert engine.config.base_reward() == engine.mechanism.schedule.base_reward

    def test_counts_the_stream_incentme_prices(self):
        """IncentMe's Σφ counts the streamed tasks; the config draws the
        stream from its own dynamics seed, as the engine does."""
        config = api.build_config("task-stream-2k", mechanism="incentme", seed=2)
        engine = api.make_engine(config)
        engine.step()
        assert engine.mechanism.schedule.base_reward == config.base_reward()
        closed = config.with_overrides(mechanism="on-demand").base_reward()
        assert config.base_reward() < closed

    @pytest.mark.parametrize("mechanism", MECHANISM_NAMES)
    def test_refuses_exactly_what_the_engine_refuses(self, mechanism):
        config = SimulationConfig(mechanism=mechanism, **self.INFEASIBLE)
        engine = api.make_engine(config)
        if mechanism in EQ9_MECHANISMS:
            with pytest.raises(ConfigError):
                config.base_reward()
            with pytest.raises(ConfigError):
                engine.step()
        else:
            assert config.base_reward() is None
            engine.step()
