"""Property tests: every bundled preset describes a buildable, valid world.

The big presets (city-50k) are validated through their *config* and a
downsized world build — constructing 50k users in a unit test is the
engine's job, not this suite's.
"""

import pytest

from repro.scenarios import PRESETS, get_preset, preset_names
from repro.simulation import make_engine

#: Downsize caps so world-building stays unit-test fast.
MAX_USERS = 500
MAX_TASKS = 100


def downsized(spec):
    overrides = {}
    if spec.to_config().n_users > MAX_USERS:
        overrides["n_users"] = MAX_USERS
    if spec.to_config().n_tasks > MAX_TASKS:
        overrides["n_tasks"] = MAX_TASKS
    return spec.to_config(seed=0, **overrides)


class TestRegistry:
    def test_names_match_keys(self):
        assert set(preset_names()) == set(PRESETS)
        for name, spec in PRESETS.items():
            assert spec.name == name

    def test_expected_presets_present(self):
        for name in ("paper-2018", "city-50k", "city-2k"):
            assert name in PRESETS

    def test_get_preset_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="paper-2018"):
            get_preset("atlantis")

    def test_every_preset_has_description(self):
        for spec in PRESETS.values():
            assert spec.description.strip()


@pytest.mark.parametrize("name", sorted(PRESETS))
class TestEveryPresetBuildsAValidWorld:
    def test_config_is_valid(self, name):
        # ScenarioSpec validates eagerly, but make the property explicit.
        config = PRESETS[name].to_config()
        assert config.n_users >= 1
        assert config.rounds >= 1

    def test_world_generates(self, name):
        config = downsized(PRESETS[name])
        world = make_engine(config).world
        assert len(list(world.users)) == config.n_users
        assert len(list(world.tasks)) == config.n_tasks

    def test_tasks_inside_region(self, name):
        config = downsized(PRESETS[name])
        world = make_engine(config).world
        region = config.region
        for task in world.tasks:
            assert region.contains(task.location)
            assert task.deadline >= 1
            assert task.required_measurements >= 1

    def test_reward_levels_feasible(self, name):
        # Eq. 9: the per-measurement base reward r0 must be positive for
        # the full-size preset's sum of phi (no world is built).
        base = PRESETS[name].to_config().base_reward()
        assert base is None or base > 0


class TestPaper2018:
    def test_matches_section_vi(self):
        config = PRESETS["paper-2018"].to_config()
        assert config.n_users == 100
        assert config.n_tasks == 20
        assert config.rounds == 15
        assert config.budget == 1000.0
        assert config.area_side == 3000.0

    def test_scales_in_sweeps(self):
        assert PRESETS["paper-2018"].to_config(n_users=40).n_users == 40


class TestCityPresets:
    def test_city_50k_is_large_scale(self):
        config = PRESETS["city-50k"].to_config()
        assert config.n_users == 50_000
        assert config.n_tasks == 2_000
        assert config.stream_rounds is True

    def test_city_2k_is_the_ci_downsize(self):
        config = PRESETS["city-2k"].to_config()
        assert config.n_users == 2_000

    def test_city_presets_use_float32_distances(self):
        for name in ("city-2k", "city-50k", "city-1m"):
            assert PRESETS[name].to_config().distance_dtype == "float32"
        # The paper-fidelity presets stay in float64.
        assert PRESETS["paper-2018"].to_config().distance_dtype == "float64"

    def test_city_1m_is_million_scale(self):
        config = PRESETS["city-1m"].to_config()
        assert config.n_users == 1_000_000
        assert config.n_tasks == 5_000
        assert config.stream_rounds is True
        assert config.distance_dtype == "float32"
        # Eq. 9 feasibility at full scale: r0 > 0.
        per_measurement = config.budget / config.total_required_measurements
        assert per_measurement > config.reward_step * (config.level_count - 1)
