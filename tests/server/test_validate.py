"""Tests for boundary validation: structured 400s with field-level blame."""

import pytest

from repro.server.validate import (
    InvalidSubmission,
    parse_submission,
)


def reject(body):
    with pytest.raises(InvalidSubmission) as excinfo:
        parse_submission(body)
    return excinfo.value


class TestShapeValidation:
    def test_non_mapping_body(self):
        err = reject([1, 2, 3])
        assert err.field == "body"
        assert "JSON object" in err.reason

    def test_unknown_key_named(self):
        err = reject({"scnario": "city-2k"})
        assert err.field == "scnario"
        assert "valid keys" in err.reason

    def test_scenario_and_spec_are_exclusive(self):
        err = reject({"scenario": "city-2k", "spec": {"name": "x"}})
        assert err.field == "scenario"
        assert "not both" in err.reason

    def test_priority_must_be_int(self):
        assert reject({"priority": "high"}).field == "priority"
        assert reject({"priority": True}).field == "priority"

    def test_timeout_must_be_positive_number(self):
        assert reject({"timeout": "soon"}).field == "timeout"
        assert reject({"timeout": -3}).field == "timeout"
        assert reject({"timeout": 0}).field == "timeout"
        for bad in (float("nan"), float("inf"), float("-inf")):
            assert reject({"timeout": bad}).field == "timeout"

    def test_overrides_must_be_mapping(self):
        assert reject({"overrides": ["seed", 7]}).field == "overrides"


class TestConfigBlame:
    def test_unknown_scenario_lists_presets(self):
        err = reject({"scenario": "atlantis"})
        assert err.field == "scenario"
        assert "city-2k" in err.reason  # the valid names are in the message

    def test_unknown_override_field(self):
        err = reject({"overrides": {"bogus_knob": 1}})
        assert err.field == "overrides"
        assert "bogus_knob" in err.reason

    def test_bad_config_value_blames_the_field(self):
        """A ConfigError surfaces under the config field it names."""
        err = reject({"overrides": {"n_users": -5}})
        assert err.field == "n_users"

    def test_fixed_mechanism_on_a_task_stream_blames_the_mechanism(self):
        err = reject({
            "scenario": "poisson-stream", "overrides": {"mechanism": "fixed"},
        })
        assert err.field == "mechanism"
        assert "task_arrival_rate" in err.reason

    def test_infeasible_eq9_budget_blames_the_budget(self):
        # 30 tasks x 20 measurements need B > 1200 for r0 > 0 (Eq. 9).
        err = reject({"overrides": {"n_users": 40, "n_tasks": 30}})
        assert err.field == "budget"
        assert "base reward r0 must be positive" in err.reason
        assert err.as_dict()["field"] == "budget"

    def test_open_world_incentme_counts_the_streamed_tasks(self):
        # poisson-stream streams 680 required measurements in all; with
        # them B = 1000 leaves IncentMe's Eq. 9 ladder no positive r0.
        err = reject({
            "scenario": "poisson-stream", "overrides": {"mechanism": "incentme"},
        })
        assert err.field == "budget"
        assert "680 required measurements" in err.reason
        assert "needs B > 1360" in err.reason
        # Its stream fits task-stream-2k's budget: still admitted.
        parsed = parse_submission({
            "scenario": "task-stream-2k", "overrides": {"mechanism": "incentme"},
        })
        assert parsed.config.base_reward() > 0

    @pytest.mark.parametrize("group", [
        {"name": "x", "fraction": 0.5, "speed": -1.0},
        {"name": "x", "fraction": 0.5, "time_budget": [-10.0, 60.0]},
        {"name": "x", "fraction": 0.5, "cost_per_meter": float("nan")},
        {"name": "x", "fraction": 1.5},
    ])
    def test_bad_population_group_blames_the_population(self, group):
        err = reject({
            "scenario": "paper-2018", "overrides": {"population": [group]},
        })
        assert err.field == "population"
        assert "population group 'x'" in err.reason

    @pytest.mark.parametrize("kwargs", [
        {"levels": 5}, {"budget": -3}, {"step": None},
    ])
    def test_unusable_eq9_mechanism_kwargs_are_blamed(self, kwargs):
        err = reject({"overrides": {"mechanism_kwargs": kwargs}})
        assert err.field == "mechanism_kwargs"

    def test_as_dict_is_the_http_body(self):
        err = reject({"overrides": {"n_users": -5}})
        body = err.as_dict()
        assert body["error"] == "invalid submission"
        assert body["field"] == "n_users"
        assert body["reason"]


class TestAcceptedSubmissions:
    def test_defaults(self):
        parsed = parse_submission({})
        assert parsed.priority == 0
        assert parsed.timeout is None
        assert parsed.fingerprint
        assert parsed.payload["scenario"] is None

    def test_scenario_preset(self):
        parsed = parse_submission(
            {"scenario": "paper-2018", "overrides": {"seed": 9}}
        )
        assert parsed.payload["scenario"] == "paper-2018"
        assert parsed.config.seed == 9

    def test_fingerprint_is_config_equality(self):
        a = parse_submission({"overrides": {"seed": 5, "n_users": 30}})
        b = parse_submission({"overrides": {"n_users": 30, "seed": 5}})
        c = parse_submission({"overrides": {"n_users": 31, "seed": 5}})
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_inline_spec(self):
        parsed = parse_submission(
            {
                "spec": {
                    "name": "custom",
                    "description": "inline",
                    "config": {"n_users": 25, "seed": 4},
                }
            }
        )
        assert parsed.config.n_users == 25

    def test_timeout_normalised_to_float(self):
        assert parse_submission({"timeout": 30}).timeout == 30.0


class TestRetiredEngineKey:
    """Job specs saved before the engine fold still submit."""

    def test_legacy_values_load_as_the_same_job(self):
        plain = parse_submission({"overrides": {"n_users": 10}})
        for legacy in ("scalar", "batched"):
            parsed = parse_submission(
                {"overrides": {"n_users": 10, "engine": legacy}}
            )
            assert parsed.config == plain.config
            assert parsed.fingerprint == plain.fingerprint

    def test_other_values_are_a_400_naming_the_retirement(self):
        err = reject({"overrides": {"engine": "vectorised"}})
        assert "retired" in err.reason
