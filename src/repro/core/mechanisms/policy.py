"""Incentive actions and the ``policy`` mechanism: pricing knobs as inputs.

The paper fixes the AHP weight vector (Table I), the per-level increment
:math:`\\lambda` (Eq. 7) and the demand-level partition (Table III) at
design time.  This module turns those three choices into *actions* that
can be applied between rounds:

- :func:`apply_incentive_action` — validate, clamp, and apply one action
  mapping (``weights`` / ``reward_step`` / ``level_count``) to an
  on-demand-style mechanism, rebuilding its :class:`DemandCalculator`
  and :class:`RewardSchedule` while preserving the Eq. 9 budget
  feasibility invariant (:math:`r_0 > 0`).
- :class:`PolicyMechanism` — registered as ``MECHANISMS["policy"]``: an
  :class:`OnDemandMechanism` steered by a callable policy that is asked
  for an action before every round's pricing.  Because it is an
  ordinary registry entry with JSON-expressible kwargs, a trained or
  black-box policy runs through the comparison harness, the parallel
  runner, and ``repro jobs submit`` unchanged.
- :data:`POLICIES` — named, constructor-kwarg policies (``static``,
  ``fixed-weights``, ``step-decay``) so a policy is addressable from a
  config file or a job submission, where a bare callable cannot travel.

Everything here is deterministic: policies see only a
:class:`PolicyContext` snapshot and never touch the random streams, so
the same seed and the same policy give the same trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.demand import DemandCalculator, DemandWeights
from repro.core.levels import DemandLevels
from repro.core.mechanisms.base import IncentiveMechanism, RoundView
from repro.core.mechanisms.on_demand import OnDemandMechanism
from repro.core.rewards import RewardSchedule
from repro.registry import Registry
from repro.world.generator import World

#: The action keys :func:`apply_incentive_action` understands.
ACTION_KEYS = ("weights", "reward_step", "level_count")

#: Floor on the base reward as a fraction of the per-measurement budget
#: share (Eq. 9's ``B / sum(phi)``): clamping never drives :math:`r_0`
#: to zero, so every published price stays strictly positive.
MIN_BASE_FRACTION = 1e-3

#: An action is any mapping over :data:`ACTION_KEYS`; ``None`` means
#: "leave the mechanism alone this round".
IncentiveAction = Optional[Mapping[str, Any]]


def _normalized_weights(raw: Sequence[float]) -> DemandWeights:
    """Clamp negatives to zero and normalise to the Eq. 2 simplex.

    Raises:
        ValueError: for a wrong-length vector, non-finite entries, or an
            all-zero vector (there is no direction to normalise).
    """
    values = np.asarray(raw, dtype=float).reshape(-1)
    if values.shape != (3,):
        raise ValueError(
            f"weights action needs 3 values (deadline, progress, scarcity), "
            f"got shape {values.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError(f"weights must be finite, got {values.tolist()}")
    values = np.maximum(values, 0.0)
    total = float(values.sum())
    if total <= 0.0:
        raise ValueError(
            f"weights must have a positive sum after clamping negatives, "
            f"got {list(raw)}"
        )
    values = values / total
    return DemandWeights(
        deadline=float(values[0]),
        progress=float(values[1]),
        scarcity=float(values[2]),
    )


def apply_incentive_action(
    mechanism: IncentiveMechanism, action: IncentiveAction
) -> Dict[str, Any]:
    """Apply one validated-and-clamped action to a pricing mechanism.

    Supported keys (any subset):

    - ``weights``: 3 non-negative numbers, normalised onto the Eq. 2
      simplex (the AHP weight vector); rebuilds the mechanism's
      :class:`DemandCalculator` with its factor scales preserved.
    - ``reward_step``: the per-level increment :math:`\\lambda` (Eq. 7),
      clamped so the rebuilt Eq. 9 base reward stays positive.
    - ``level_count``: the demand-level partition size N (Table III),
      clamped to the largest budget-feasible count.

    The Eq. 9 per-measurement budget share ``r0 + lambda (N - 1)`` is an
    invariant of the rebuild: whatever the action asks for, the reward
    ladder's worst case still fits the platform budget.

    Args:
        mechanism: an initialized on-demand-style mechanism (anything
            exposing ``schedule`` / ``calculator``); wrappers may point
            ``action_target`` at the mechanism actions should reach.
        action: the action mapping, or None for a no-op.

    Returns:
        What was actually applied after clamping (empty for a no-op) —
        e.g. ``{"reward_step": 0.75}`` when the requested 2.0 was
        clamped down to keep :math:`r_0` positive.

    Raises:
        TypeError: when the action is not a mapping.
        ValueError: for unknown keys, malformed values, or a mechanism
            that has no demand-pricing knobs / is not initialized yet.
    """
    if action is None:
        return {}
    if not isinstance(action, Mapping):
        raise TypeError(
            f"an incentive action must be a mapping over {ACTION_KEYS}, "
            f"got {type(action).__name__}"
        )
    unknown = sorted(set(action) - set(ACTION_KEYS))
    if unknown:
        raise ValueError(
            f"unknown incentive action key(s) {', '.join(map(repr, unknown))}; "
            f"valid: {', '.join(ACTION_KEYS)}"
        )
    target = getattr(mechanism, "action_target", mechanism)
    schedule = getattr(target, "schedule", None)
    calculator = getattr(target, "calculator", None)
    if calculator is None:
        raise ValueError(
            f"mechanism {type(mechanism).__name__!r} has no demand "
            f"calculator; incentive actions need an on-demand-style "
            f"mechanism"
        )
    if schedule is None:
        raise ValueError(
            f"mechanism {type(mechanism).__name__!r} is not initialized "
            f"(no reward schedule yet); actions apply between rounds of "
            f"a live session"
        )

    # Validate every key BEFORE mutating anything: an action like
    # {"weights": [...], "reward_step": -1} must raise with the
    # mechanism untouched, so callers (SimulationSession.step documents
    # ValueError as "nothing is stepped") never see a half-applied
    # action or a stale price cache.
    weights: Optional[DemandWeights] = None
    if "weights" in action:
        weights = _normalized_weights(action["weights"])

    ladder: Optional[Tuple[float, int, float]] = None
    if "reward_step" in action or "level_count" in action:
        step = float(action.get("reward_step", schedule.step))
        if not np.isfinite(step) or step <= 0:
            raise ValueError(
                f"reward_step must be a positive finite number, got {step}"
            )
        count = int(action.get("level_count", schedule.levels.count))
        count = max(1, count)
        # Eq. 9 invariant: the per-measurement budget share is fixed by
        # the schedule being replaced, so the new ladder's worst case
        # costs exactly what the old one did.
        unit = schedule.base_reward + schedule.step * (schedule.levels.count - 1)
        min_base = unit * MIN_BASE_FRACTION
        if count > 1:
            max_count = 1 + int((unit - min_base) // step)
            count = max(1, min(count, max_count))
        if count > 1:
            max_step = (unit - min_base) / (count - 1)
            step = min(step, max_step)
        ladder = (step, count, unit)

    applied: Dict[str, Any] = {}
    if weights is not None:
        target.weights = weights
        target.calculator = DemandCalculator(
            weights=weights,
            deadline_scale=calculator.deadline_scale,
            progress_scale=calculator.progress_scale,
            scarcity_scale=calculator.scarcity_scale,
        )
        applied["weights"] = (
            weights.deadline, weights.progress, weights.scarcity
        )

    if ladder is not None:
        step, count, unit = ladder
        levels = DemandLevels(count)
        target.step = step
        target.levels = levels
        target.schedule = RewardSchedule(
            base_reward=unit - step * (count - 1), step=step, levels=levels
        )
        if "reward_step" in action:
            applied["reward_step"] = step
        if "level_count" in action:
            applied["level_count"] = count
    return applied


# -- policy callables ------------------------------------------------------


@dataclass(frozen=True)
class PolicyContext:
    """What a policy sees before each round's pricing (deterministic).

    The context is the platform's own knowledge: the upcoming round,
    how many tasks are up for pricing, the current reward-ladder knobs,
    and the previous round's normalised demands.  Policies never see
    the world's random streams.
    """

    round_no: int
    active_tasks: int
    budget: float
    base_reward: float
    step: float
    level_count: int
    weights: Tuple[float, float, float]
    last_demands: Mapping[int, float]


#: A policy maps the round context to an action (or None for a no-op).
PolicyFn = Callable[[PolicyContext], IncentiveAction]

#: Named policies addressable from configs and job submissions.
POLICIES: Registry[PolicyFn] = Registry("policy")


@POLICIES.register
class StaticPolicy:
    """The no-op policy: the wrapped mechanism behaves exactly as
    configured (``mechanism="policy"`` with this policy is the paper's
    on-demand mechanism, priced identically)."""

    name = "static"

    def __call__(self, context: PolicyContext) -> IncentiveAction:
        return None


@POLICIES.register
class FixedWeightsPolicy:
    """Pin the AHP weight vector to an explicit simplex point.

    The tuned-weights carrier: a random-search (or any offline
    optimiser) result travels as three JSON numbers.
    """

    name = "fixed-weights"

    def __init__(
        self,
        deadline: float = 1.0 / 3.0,
        progress: float = 1.0 / 3.0,
        scarcity: float = 1.0 / 3.0,
    ):
        # Normalise onto the Eq. 2 simplex up front: context.weights is
        # always normalised, so the __call__ no-op comparison would
        # never fire for raw kwargs like (2, 1, 1).
        weights = _normalized_weights((deadline, progress, scarcity))
        self.weights = (weights.deadline, weights.progress, weights.scarcity)

    def __call__(self, context: PolicyContext) -> IncentiveAction:
        if context.weights == self.weights:
            return None
        return {"weights": self.weights}


@POLICIES.register
class StepDecayPolicy:
    """Geometrically shrink :math:`\\lambda` each round, never below a floor.

    Early rounds keep the paper's aggressive level spread (hot tasks pay
    visibly more); late rounds flatten the ladder so the remaining
    budget spreads across stragglers.
    """

    name = "step-decay"

    def __init__(self, decay: float = 0.9, floor: float = 0.05):
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        if floor <= 0:
            raise ValueError(f"floor must be positive, got {floor}")
        self.decay = float(decay)
        self.floor = float(floor)

    def __call__(self, context: PolicyContext) -> IncentiveAction:
        step = max(self.floor, context.step * self.decay)
        if step == context.step:
            return None
        return {"reward_step": step}


def resolve_policy(
    policy: Union[str, Mapping[str, Any], PolicyFn],
) -> PolicyFn:
    """A callable policy from a name, a ``{"name": ..., **kwargs}``
    mapping (the JSON-expressible forms), or a callable (used as-is).

    Raises:
        ValueError: for an unknown policy name or a mapping without a
            ``name`` key.
        TypeError: for a spec that is none of the three forms.
    """
    if isinstance(policy, str):
        return POLICIES.create(policy)
    if isinstance(policy, Mapping):
        spec = dict(policy)
        name = spec.pop("name", None)
        if not name:
            raise ValueError(
                f"a policy mapping needs a 'name' key "
                f"(valid: {', '.join(POLICIES.available())}), got {policy!r}"
            )
        return POLICIES.create(name, **spec)
    if callable(policy):
        return policy
    raise TypeError(
        f"policy must be a name, a {{'name': ...}} mapping, or a "
        f"callable, got {type(policy).__name__}"
    )


class PolicyMechanism(IncentiveMechanism):
    """``MECHANISMS["policy"]``: on-demand pricing steered by a policy.

    Before every round's pricing the policy is shown a
    :class:`PolicyContext` and may return an incentive action, which is
    applied to the wrapped :class:`OnDemandMechanism` (validated and
    clamped, see :func:`apply_incentive_action`).  With the default
    ``static`` policy the prices are bit-identical to ``on-demand``.

    All engine integration hooks (``neighbour_radius``, which gets the
    run an Eq. 5 counter, and ``last_demands`` / ``levels``
    observability) delegate to the wrapped mechanism, so the engine
    treats a policy-steered run exactly like an on-demand one.

    Args:
        policy: a registered policy name, a JSON-style ``{"name": ...}``
            mapping, or any callable ``PolicyContext -> action``.
        budget / step / levels / neighbour_radius: forwarded to the
            wrapped :class:`OnDemandMechanism` (the config wires these
            in via :meth:`SimulationConfig.mechanism_arguments`).
        **inner_kwargs: any further :class:`OnDemandMechanism` kwargs
            (comparison matrix, explicit weights, factor scales, ...).
    """

    name = "policy"

    def __init__(
        self,
        policy: Union[str, Mapping[str, Any], PolicyFn] = "static",
        budget: float = 1000.0,
        step: float = 0.5,
        levels: Optional[DemandLevels] = None,
        neighbour_radius: float = 500.0,
        **inner_kwargs: Any,
    ):
        self.policy_spec = policy
        self.policy = resolve_policy(policy)
        # The last round the policy was consulted for.  rewards() may
        # legitimately run twice in one round — session.observe() prices
        # and caches, then a session.step(action) invalidates the cache
        # and reprices — and a stateful policy (e.g. step-decay) must
        # not act twice, or the trajectory would depend on whether
        # observe() was called.
        self._last_policy_round: Optional[int] = None
        self.inner = OnDemandMechanism(
            budget=budget,
            step=step,
            levels=levels,
            neighbour_radius=neighbour_radius,
            **inner_kwargs,
        )

    # -- engine hooks, delegated to the wrapped mechanism ----------------

    @property
    def action_target(self) -> OnDemandMechanism:
        """Where :func:`apply_incentive_action` lands (the wrapped
        mechanism owns the calculator and the schedule)."""
        return self.inner

    @property
    def neighbour_radius(self) -> float:
        return self.inner.neighbour_radius

    @property
    def levels(self) -> DemandLevels:
        return self.inner.levels

    @property
    def schedule(self) -> Optional[RewardSchedule]:
        return self.inner.schedule

    @property
    def calculator(self) -> DemandCalculator:
        return self.inner.calculator

    @property
    def weights(self) -> DemandWeights:
        return self.inner.weights

    @property
    def budget(self) -> float:
        return self.inner.budget

    @property
    def last_demands(self) -> Dict[int, float]:
        return self.inner.last_demands

    # -- mechanism interface ---------------------------------------------

    def initialize(self, world: World, rng: np.random.Generator) -> None:
        self.inner.initialize(world, rng)
        self._last_policy_round = None

    def context(self, round_no: int, active_tasks: int) -> PolicyContext:
        """The deterministic snapshot the policy is shown each round."""
        schedule = self.inner.schedule
        weights = self.inner.weights
        return PolicyContext(
            round_no=round_no,
            active_tasks=active_tasks,
            budget=self.inner.budget,
            base_reward=schedule.base_reward,
            step=schedule.step,
            level_count=schedule.levels.count,
            weights=(weights.deadline, weights.progress, weights.scarcity),
            last_demands=dict(self.inner.last_demands),
        )

    def rewards(self, view: RoundView) -> Dict[int, float]:
        if self.inner.schedule is None:
            raise RuntimeError("initialize() must be called before rewards()")
        if view.round_no != self._last_policy_round:
            self._last_policy_round = view.round_no
            action = self.policy(
                self.context(view.round_no, len(view.active_tasks))
            )
            if action is not None:
                apply_incentive_action(self.inner, action)
        return self.inner.rewards(view)
