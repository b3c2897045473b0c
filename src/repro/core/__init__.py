"""The paper's primary contribution: the demand-based dynamic incentive.

Submodules map one-to-one onto Section IV of the paper:

- :mod:`~repro.core.ahp` — the Analytic Hierarchy Process used to weight
  the three demand criteria (Section IV-B, Tables I/II, Eq. 6).
- :mod:`~repro.core.demand` — the demand factors X1/X2/X3 (Eq. 3–5) and
  the weighted, normalised demand indicator (Eq. 2).
- :mod:`~repro.core.levels` — the demand-level bucketing (Table III).
- :mod:`~repro.core.rewards` — the reward-update rule and budget-derived
  base reward (Eq. 7–9).
- :mod:`~repro.core.mechanisms` — the on-demand mechanism assembled from
  the above, plus the fixed and steered baselines from Section VI.
"""

from repro.core.ahp import (
    PairwiseComparisonMatrix,
    example_comparison_matrix,
    RANDOM_CONSISTENCY_INDEX,
)
from repro.core.demand import (
    DemandWeights,
    deadline_factor,
    progress_factor,
    scarcity_factor,
    DemandCalculator,
    TaskDemandInputs,
)
from repro.core.levels import DemandLevels
from repro.core.rewards import RewardSchedule
from repro.core.mechanisms import (
    MECHANISMS,
    IncentiveMechanism,
    OnDemandMechanism,
    FixedMechanism,
    SteeredMechanism,
    ProportionalDemandMechanism,
)

__all__ = [
    "PairwiseComparisonMatrix",
    "example_comparison_matrix",
    "RANDOM_CONSISTENCY_INDEX",
    "DemandWeights",
    "deadline_factor",
    "progress_factor",
    "scarcity_factor",
    "DemandCalculator",
    "TaskDemandInputs",
    "DemandLevels",
    "RewardSchedule",
    "IncentiveMechanism",
    "OnDemandMechanism",
    "FixedMechanism",
    "SteeredMechanism",
    "ProportionalDemandMechanism",
    "MECHANISMS",
]
