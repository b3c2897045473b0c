"""Incentive mechanisms: the contribution and the Section VI baselines.

All mechanisms share the :class:`~repro.core.mechanisms.base.IncentiveMechanism`
interface — once per simulation they see the initial world, then at the
start of every round they return a per-task reward map, which is all the
platform publishes in the WST mode (Fig. 1).

- :class:`~repro.core.mechanisms.on_demand.OnDemandMechanism` — the paper's
  demand-based dynamic incentive (Section IV).
- :class:`~repro.core.mechanisms.fixed.FixedMechanism` — a random demand
  level per task, frozen at round 1 (the paper's "fixed" baseline).
- :class:`~repro.core.mechanisms.steered.SteeredMechanism` — Kawajiri et
  al.'s steered crowdsensing reward (Eq. 13), decreasing in received
  measurements.
- :class:`~repro.core.mechanisms.proportional.ProportionalDemandMechanism`
  — ablation: continuous demand-to-reward mapping without Table III levels.
- :class:`~repro.core.mechanisms.policy.PolicyMechanism` — on-demand
  pricing steered by a callable policy (``MECHANISMS["policy"]``): the
  AHP weights, :math:`\\lambda`, and level partition become per-round
  actions (see :mod:`repro.envs` for the training environment).
"""

from repro.core.mechanisms.base import IncentiveMechanism, RoundView
from repro.core.mechanisms.on_demand import OnDemandMechanism
from repro.core.mechanisms.fixed import FixedMechanism
from repro.core.mechanisms.steered import SteeredMechanism
from repro.core.mechanisms.proportional import ProportionalDemandMechanism
from repro.core.mechanisms.adaptive import AdaptiveBudgetMechanism
from repro.core.mechanisms.policy import (
    POLICIES,
    IncentiveAction,
    PolicyContext,
    PolicyMechanism,
    apply_incentive_action,
    resolve_policy,
)
from repro.core.mechanisms.registry import MECHANISMS, MECHANISM_NAMES

__all__ = [
    "IncentiveMechanism",
    "RoundView",
    "OnDemandMechanism",
    "FixedMechanism",
    "SteeredMechanism",
    "ProportionalDemandMechanism",
    "AdaptiveBudgetMechanism",
    "PolicyMechanism",
    "PolicyContext",
    "IncentiveAction",
    "apply_incentive_action",
    "resolve_policy",
    "POLICIES",
    "MECHANISMS",
    "MECHANISM_NAMES",
]
