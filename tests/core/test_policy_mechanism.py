"""Incentive actions and MECHANISMS["policy"]: the learned-pricing seam.

``apply_incentive_action`` must validate and clamp against the Eq. 9
budget-feasibility invariant; ``PolicyMechanism`` must be a first-class
registry citizen (JSON kwargs, engine parity, static == on-demand).
"""

import numpy as np
import pytest

from repro.core.mechanisms import (
    MECHANISMS,
    OnDemandMechanism,
    PolicyMechanism,
    apply_incentive_action,
)
from repro.core.mechanisms.policy import (
    ACTION_KEYS,
    MIN_BASE_FRACTION,
    POLICIES,
    PolicyContext,
    resolve_policy,
)
from repro.simulation import SimulationConfig, result_fingerprint, simulate

SMALL = dict(n_users=25, n_tasks=6, rounds=4, seed=0)


def small_world(config):
    return config.world_generator().uniform(np.random.default_rng(0))


def live_mechanism(**kwargs):
    """An initialized OnDemandMechanism with a real schedule/calculator."""
    config = SimulationConfig(**SMALL)
    mechanism = OnDemandMechanism(budget=config.budget, **kwargs)
    mechanism.initialize(small_world(config), np.random.default_rng(0))
    return mechanism


def ladder_unit(schedule):
    """Eq. 9's per-measurement budget share for a schedule."""
    return schedule.base_reward + schedule.step * (schedule.levels.count - 1)


class TestApplyIncentiveAction:
    def test_none_and_empty_are_noops(self):
        mechanism = live_mechanism()
        before = mechanism.schedule
        assert apply_incentive_action(mechanism, None) == {}
        assert apply_incentive_action(mechanism, {}) == {}
        assert mechanism.schedule is before

    def test_weights_normalise_to_simplex(self):
        mechanism = live_mechanism()
        applied = apply_incentive_action(mechanism, {"weights": [2, 1, 1]})
        assert applied["weights"] == pytest.approx((0.5, 0.25, 0.25))
        assert mechanism.weights.deadline == pytest.approx(0.5)
        assert mechanism.calculator.weights is mechanism.weights

    def test_weights_negative_components_clamp_to_zero(self):
        mechanism = live_mechanism()
        applied = apply_incentive_action(mechanism, {"weights": [-1, 1, 1]})
        assert applied["weights"] == pytest.approx((0.0, 0.5, 0.5))

    def test_weights_wrong_arity_rejected(self):
        mechanism = live_mechanism()
        with pytest.raises(ValueError, match="3 values"):
            apply_incentive_action(mechanism, {"weights": [1.0, 2.0]})

    def test_weights_all_zero_rejected(self):
        mechanism = live_mechanism()
        with pytest.raises(ValueError, match="positive sum"):
            apply_incentive_action(mechanism, {"weights": [0, 0, -3]})

    def test_unknown_key_rejected(self):
        mechanism = live_mechanism()
        with pytest.raises(ValueError, match="lambda"):
            apply_incentive_action(mechanism, {"lambda": 1.0})

    def test_non_mapping_rejected(self):
        mechanism = live_mechanism()
        with pytest.raises(TypeError, match="mapping"):
            apply_incentive_action(mechanism, [0.5, 0.5, 0.0])

    def test_uninitialized_mechanism_rejected(self):
        mechanism = OnDemandMechanism()
        with pytest.raises(ValueError, match="not initialized"):
            apply_incentive_action(mechanism, {"reward_step": 1.0})

    def test_mechanism_without_knobs_rejected(self):
        from repro.core.mechanisms import FixedMechanism

        with pytest.raises(ValueError, match="demand"):
            apply_incentive_action(FixedMechanism(), {"reward_step": 1.0})

    def test_reward_step_rebuild_preserves_eq9_unit(self):
        mechanism = live_mechanism()
        unit_before = ladder_unit(mechanism.schedule)
        apply_incentive_action(mechanism, {"reward_step": 0.8})
        assert mechanism.schedule.step == pytest.approx(0.8)
        assert ladder_unit(mechanism.schedule) == pytest.approx(unit_before)
        assert mechanism.schedule.base_reward > 0

    def test_huge_reward_step_collapses_ladder_not_budget(self):
        """A step larger than the whole Eq. 9 unit cannot fit even two
        levels: the clamp flattens the ladder to one level rather than
        overdraw the budget or reject the action."""
        mechanism = live_mechanism()
        unit = ladder_unit(mechanism.schedule)
        apply_incentive_action(mechanism, {"reward_step": 10 * unit})
        assert mechanism.schedule.levels.count == 1
        assert mechanism.schedule.base_reward >= unit * MIN_BASE_FRACTION * 0.99
        assert ladder_unit(mechanism.schedule) == pytest.approx(unit)

    def test_nonpositive_reward_step_rejected(self):
        mechanism = live_mechanism()
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="positive finite"):
                apply_incentive_action(mechanism, {"reward_step": bad})

    def test_level_count_clamped_to_budget_feasible(self):
        mechanism = live_mechanism()
        unit = ladder_unit(mechanism.schedule)
        applied = apply_incentive_action(mechanism, {"level_count": 10_000})
        count = applied["level_count"]
        assert 1 <= count < 10_000
        assert mechanism.schedule.levels.count == count
        assert ladder_unit(mechanism.schedule) == pytest.approx(unit)

    def test_level_count_one_flattens_the_ladder(self):
        mechanism = live_mechanism()
        unit = ladder_unit(mechanism.schedule)
        apply_incentive_action(mechanism, {"level_count": 1})
        assert mechanism.schedule.levels.count == 1
        assert mechanism.schedule.base_reward == pytest.approx(unit)

    def test_partially_invalid_action_mutates_nothing(self):
        """Validation is atomic: {"weights": ok, "reward_step": bad}
        must raise with the mechanism untouched — session.step documents
        ValueError as 'nothing is stepped', so a half-applied action
        would desync the engine's price cache."""
        mechanism = live_mechanism()
        weights_before = mechanism.weights
        calculator_before = mechanism.calculator
        schedule_before = mechanism.schedule
        with pytest.raises(ValueError, match="positive finite"):
            apply_incentive_action(
                mechanism, {"weights": [2, 1, 1], "reward_step": -1.0}
            )
        assert mechanism.weights is weights_before
        assert mechanism.calculator is calculator_before
        assert mechanism.schedule is schedule_before

    def test_action_target_indirection(self):
        """Actions on a PolicyMechanism land on the wrapped inner."""
        config = SimulationConfig(**SMALL)
        mechanism = PolicyMechanism(budget=config.budget)
        mechanism.initialize(small_world(config), np.random.default_rng(0))
        apply_incentive_action(mechanism, {"reward_step": 0.8})
        assert mechanism.inner.schedule.step == pytest.approx(0.8)


class TestPolicyRegistry:
    def test_policy_registered_as_mechanism(self):
        assert "policy" in MECHANISMS.available()
        assert MECHANISMS.get("policy") is PolicyMechanism

    def test_named_policies_available(self):
        for name in ("static", "fixed-weights", "step-decay"):
            assert name in POLICIES.available()

    def test_resolve_policy_str(self):
        policy = resolve_policy("static")
        assert policy(None) is None

    def test_resolve_policy_mapping_with_kwargs(self):
        policy = resolve_policy({"name": "step-decay", "decay": 0.5,
                                 "floor": 0.2})
        assert (policy.decay, policy.floor) == (0.5, 0.2)

    def test_resolve_policy_mapping_without_name_rejected(self):
        with pytest.raises(ValueError, match="'name' key"):
            resolve_policy({"decay": 0.5})

    def test_resolve_policy_callable_passthrough(self):
        fn = lambda context: None  # noqa: E731
        assert resolve_policy(fn) is fn

    def test_resolve_policy_garbage_rejected(self):
        with pytest.raises(TypeError, match="callable"):
            resolve_policy(42)

    def test_fixed_weights_normalised_at_construction(self):
        """Raw kwargs like (2, 1, 1) are normalised up front so the
        no-op short-circuit against the mechanism's (normalised)
        context.weights can actually fire."""
        policy = resolve_policy(
            {"name": "fixed-weights", "deadline": 2, "progress": 1,
             "scarcity": 1}
        )
        assert policy.weights == pytest.approx((0.5, 0.25, 0.25))
        context = PolicyContext(
            round_no=2, active_tasks=3, budget=100.0, base_reward=1.0,
            step=0.5, level_count=5, weights=policy.weights,
            last_demands={},
        )
        assert policy(context) is None

    def test_step_decay_validates_kwargs(self):
        with pytest.raises(ValueError, match="decay"):
            resolve_policy({"name": "step-decay", "decay": 1.5})
        with pytest.raises(ValueError, match="floor"):
            resolve_policy({"name": "step-decay", "floor": 0.0})


class TestPolicyMechanismRuns:
    def test_static_policy_is_bit_identical_to_on_demand(self):
        baseline = simulate(SimulationConfig(**SMALL))
        policy = simulate(SimulationConfig(mechanism="policy", **SMALL))
        assert result_fingerprint(policy) == result_fingerprint(baseline)

    def test_json_kwargs_policy_via_config(self):
        """The job-submission path: policy spec as plain JSON kwargs."""
        result = simulate(SimulationConfig(
            mechanism="policy",
            mechanism_kwargs={
                "policy": {"name": "step-decay", "decay": 0.8, "floor": 0.1},
            },
            **SMALL,
        ))
        assert result.rounds_played >= 1
        assert result.total_paid > 0

    def test_fixed_weights_policy_changes_pricing(self):
        baseline = simulate(SimulationConfig(**SMALL))
        steered = simulate(SimulationConfig(
            mechanism="policy",
            mechanism_kwargs={
                "policy": {"name": "fixed-weights", "deadline": 0.1,
                           "progress": 0.1, "scarcity": 0.8},
            },
            **SMALL,
        ))
        assert result_fingerprint(steered) != result_fingerprint(baseline)

    def test_callable_policy_sees_context(self):
        seen = []

        def spy(context):
            assert isinstance(context, PolicyContext)
            seen.append(context.round_no)
            return None

        result = simulate(SimulationConfig(
            mechanism="policy", mechanism_kwargs={"policy": spy}, **SMALL,
        ))
        assert seen[0] == 1
        assert len(seen) == result.rounds_played

    def test_policy_consulted_at_most_once_per_round(self):
        """Repricing the same round (session.observe() caches a price
        map, session.step(action) invalidates and reprices) must not
        re-run the policy — a stateful policy acting twice would make
        the trajectory depend on whether observe() was called."""
        from repro.core.mechanisms.base import RoundView

        seen = []

        def spy(context):
            seen.append(context.round_no)
            return None

        config = SimulationConfig(**SMALL)
        mechanism = PolicyMechanism(policy=spy, budget=config.budget)
        world = small_world(config)
        mechanism.initialize(world, np.random.default_rng(0))
        view = RoundView(
            round_no=1,
            active_tasks=world.tasks,
            user_locations=world.positions,
        )
        first = mechanism.rewards(view)
        second = mechanism.rewards(view)  # same round: repricing only
        assert seen == [1]
        assert first == second
        view2 = RoundView(
            round_no=2,
            active_tasks=world.tasks,
            user_locations=world.positions,
        )
        mechanism.rewards(view2)
        assert seen == [1, 2]

    def test_action_keys_are_stable(self):
        """The env adapters and docs enumerate these exact knobs."""
        assert ACTION_KEYS == ("weights", "reward_step", "level_count")
